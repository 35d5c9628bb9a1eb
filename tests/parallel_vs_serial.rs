//! The parallel algorithms against the serial reference, end to end.

use std::time::Duration;

use grape6::core::{Grape6Engine, HermiteIntegrator, IntegratorConfig};
use grape6::nbody::force::{direct_all, DirectEngine, ForceEngine, ForceResult};
use grape6::nbody::ic::plummer::plummer_model;
use grape6::nbody::particle::ParticleSet;
use grape6::net::{
    run_ranks, LinkProfile, StreamConfig, StreamKind, StreamTransport, VirtualTransport,
};
use grape6::parallel::copy_algo::{run_copy_parallel, run_copy_rank, CopyConfig, CopySegment};
use grape6::parallel::{grid2d_forces, grid2d_rank, ring_forces, ring_rank};
use grape6::system::MachineConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every word of a particle state, as bit patterns.
fn bits(s: &ParticleSet) -> Vec<u64> {
    let vecs = [&s.pos, &s.vel, &s.acc, &s.jerk, &s.snap, &s.crackle];
    let v = vecs
        .iter()
        .flat_map(|v| v.iter().flat_map(|x| [x.x, x.y, x.z]));
    let scalars = [&s.pot, &s.t, &s.dt].into_iter().flatten().copied();
    v.chain(scalars).map(f64::to_bits).collect()
}

/// Run `rank` on every rank of a `p`-rank in-process UDS mesh, one thread
/// per rank; returns the per-rank results in rank order.
fn uds_mesh<R: Send>(
    p: usize,
    tag: &str,
    rank: impl Fn(&mut StreamTransport) -> R + Sync,
) -> Vec<R> {
    let dir = std::env::temp_dir().join(format!("g6-{tag}-uds-{p}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Debug builds of the bit-level engine are slow: a generous budget for
    // waiting on the slowest rank.
    let cfg = StreamConfig {
        read_deadline: Duration::from_millis(500),
        read_attempts: 6,
        ..StreamConfig::default()
    };
    let out = std::thread::scope(|s| {
        let handles: Vec<_> = (0..p)
            .map(|r| {
                let (dir, rank) = (&dir, &rank);
                s.spawn(move || {
                    let mut tr = StreamTransport::connect_with(r, p, dir, StreamKind::Uds, &cfg)
                        .expect("rendezvous");
                    rank(&mut tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect()
    });
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Every rank's final state of a `p`-rank copy-algorithm run on the
/// virtual fabric, then over an in-process UDS mesh.
fn both_backends<E: ForceEngine>(
    set: &ParticleSet,
    p: usize,
    t_end: f64,
    engine: impl Fn() -> E + Sync,
) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let integ = IntegratorConfig::default();
    let seg = CopySegment {
        resume_from: None,
        max_blocksteps: None,
        t_end,
    };
    let virt = run_ranks::<Vec<u8>, _, _>(p, LinkProfile::ideal(), |mut ep| {
        let mut tr = VirtualTransport::new(&mut ep);
        let it = run_copy_rank(engine(), set.clone(), integ, seg, &mut tr, |_, _| {})
            .expect("virtual rank");
        bits(it.particles())
    });
    let tag = format!("copy-{}", set.n());
    let uds = uds_mesh(p, &tag, |tr| {
        let it = run_copy_rank(engine(), set.clone(), integ, seg, tr, |_, _| {}).expect("uds rank");
        bits(it.particles())
    });
    (virt, uds)
}

#[test]
fn copy_ranks_over_uds_match_the_virtual_fabric_and_the_serial_driver() {
    let n = 32;
    let set = plummer_model(n, &mut StdRng::seed_from_u64(205));
    let t_end = 0.125;
    let mut serial = HermiteIntegrator::new(
        DirectEngine::new(n),
        set.clone(),
        IntegratorConfig::default(),
    );
    serial.run_until(t_end);
    let want = bits(serial.particles());
    for p in [2usize, 4] {
        let (virt, uds) = both_backends(&set, p, t_end, || DirectEngine::new(n));
        for r in 0..p {
            assert!(virt[r] == want, "p={p} rank {r}: virtual fabric vs serial");
            assert!(uds[r] == want, "p={p} rank {r}: UDS vs serial");
        }
    }
}

#[test]
fn copy_ranks_on_the_bit_level_engine_agree_on_every_rank_and_backend() {
    let n = 24;
    let t_end = 0.0625;
    let machine = MachineConfig::test_small();
    let set = plummer_model(n, &mut StdRng::seed_from_u64(206));
    let grape = || Grape6Engine::try_new(&machine, n).expect("capacity");
    for p in [2usize, 4] {
        let (virt, uds) = both_backends(&set, p, t_end, grape);
        for r in 0..p {
            assert!(virt[r] == virt[0], "p={p}: virtual rank {r} vs rank 0");
            assert!(uds[r] == virt[0], "p={p}: UDS rank {r} vs virtual rank 0");
        }
    }
    // One rank owns every block entry: the serial driver's bits exactly.
    let mut serial = HermiteIntegrator::new(grape(), set.clone(), IntegratorConfig::default());
    serial.run_until(t_end);
    let (virt, uds) = both_backends(&set, 1, t_end, grape);
    assert!(virt[0] == bits(serial.particles()), "p=1 virtual vs serial");
    assert!(uds[0] == virt[0], "p=1 UDS vs virtual");
}

#[test]
fn copy_algorithm_bitwise_across_rank_counts() {
    let n = 36;
    let set = plummer_model(n, &mut StdRng::seed_from_u64(200));
    let cfg = CopyConfig::default();
    let mut serial = HermiteIntegrator::new(DirectEngine::new(n), set.clone(), cfg.integ);
    serial.run_until(0.2);
    let want = serial.particles().clone();
    for p in [2usize, 4, 5] {
        let got = run_copy_parallel(&set, p, 0.2, &cfg);
        assert_eq!(got.set.pos, want.pos, "p={p}: positions differ");
        assert_eq!(got.set.vel, want.vel, "p={p}: velocities differ");
        assert_eq!(
            got.stats.blocksteps,
            serial.stats().blocksteps,
            "p={p}: schedules differ"
        );
    }
}

#[test]
fn ring_and_grid_forces_match_direct_summation() {
    let n = 70;
    let set = plummer_model(n, &mut StdRng::seed_from_u64(201));
    let eps2 = 1e-4;
    let want = direct_all(&set.mass, &set.pos, &set.vel, eps2);
    let (ring, _) = ring_forces(
        &set.mass,
        &set.pos,
        &set.vel,
        eps2,
        4,
        LinkProfile::ideal(),
        0.0,
    );
    let (grid, _) = grid2d_forces(
        &set.mass,
        &set.pos,
        &set.vel,
        eps2,
        3,
        LinkProfile::ideal(),
        0.0,
    );
    for i in 0..n {
        assert!((ring[i].acc - want[i].acc).norm() < 1e-11, "ring i={i}");
        assert!((grid[i].acc - want[i].acc).norm() < 1e-11, "grid i={i}");
        assert!((ring[i].pot - want[i].pot).abs() < 1e-11);
        assert!((grid[i].pot - want[i].pot).abs() < 1e-11);
    }
}

/// Every word of a force vector, as bit patterns.
fn force_bits(forces: &[ForceResult]) -> Vec<u64> {
    let words = forces.iter().flat_map(|f| {
        let (a, j) = (f.acc, f.jerk);
        [a.x, a.y, a.z, j.x, j.y, j.z, f.pot]
    });
    words.map(f64::to_bits).collect()
}

#[test]
fn ring_and_grid_ranks_over_uds_match_the_virtual_fabric() {
    let n = 29; // divisible by none of the rank counts
    let set = plummer_model(n, &mut StdRng::seed_from_u64(207));
    let eps2 = 1e-4;
    let (m, x, v) = (&set.mass[..], &set.pos[..], &set.vel[..]);
    for p in [2usize, 3, 4] {
        let virt = run_ranks::<Vec<u8>, _, _>(p, LinkProfile::ideal(), |mut ep| {
            let mut tr = VirtualTransport::new(&mut ep);
            force_bits(&ring_rank(m, x, v, eps2, &mut tr, |_, _| {}).expect("virtual rank"))
        });
        let uds = uds_mesh(p, "ring", |tr| {
            force_bits(&ring_rank(m, x, v, eps2, tr, |_, _| {}).expect("uds rank"))
        });
        let (want, _) = ring_forces(m, x, v, eps2, p, LinkProfile::ideal(), 0.0);
        for r in 0..p {
            assert!(virt[r] == force_bits(&want), "ring p={p}: virtual rank {r}");
            assert!(uds[r] == virt[r], "ring p={p}: UDS rank {r} vs virtual");
        }
    }
    for r in [2usize, 3] {
        let p = r * r;
        let virt = run_ranks::<Vec<u8>, _, _>(p, LinkProfile::ideal(), |mut ep| {
            let mut tr = VirtualTransport::new(&mut ep);
            force_bits(&grid2d_rank(m, x, v, eps2, &mut tr, |_, _| {}).expect("virtual rank"))
        });
        let uds = uds_mesh(p, "grid", |tr| {
            force_bits(&grid2d_rank(m, x, v, eps2, tr, |_, _| {}).expect("uds rank"))
        });
        let (want, _) = grid2d_forces(m, x, v, eps2, r, LinkProfile::ideal(), 0.0);
        for k in 0..p {
            assert!(virt[k] == force_bits(&want), "grid r={r}: virtual rank {k}");
            assert!(uds[k] == virt[k], "grid r={r}: UDS rank {k} vs virtual");
        }
    }
}

#[test]
fn more_ranks_more_wire_traffic_same_physics() {
    // The copy algorithm's defining cost: every update crosses the wire to
    // every other rank, so total bytes grow with p while the physics does
    // not change at all.
    let n = 30;
    let set = plummer_model(n, &mut StdRng::seed_from_u64(202));
    let cfg = CopyConfig::default();
    let r2 = run_copy_parallel(&set, 2, 0.1, &cfg);
    let r4 = run_copy_parallel(&set, 4, 0.1, &cfg);
    assert_eq!(r2.set.pos, r4.set.pos);
    let b2: u64 = r2.bytes_sent.iter().sum();
    let b4: u64 = r4.bytes_sent.iter().sum();
    assert!(
        b4 > b2,
        "4 ranks should move more total bytes than 2 ({b4} vs {b2})"
    );
}

#[test]
fn midrun_hardware_deaths_leave_trajectories_bitwise_identical() {
    // §3.4's reproducibility property as a fault-tolerance oracle: kill a
    // module and then a whole board *mid-integration* and the trajectory
    // must stay bitwise identical to the healthy machine — the engine
    // redistributes the j-particles over the survivors and the block-FP
    // reduction makes the new partitioning invisible.
    use grape6::fault::FaultPlan;

    let n = 48;
    let set = plummer_model(n, &mut StdRng::seed_from_u64(204));
    let cfg = IntegratorConfig::default();
    let machine = MachineConfig {
        boards: 3,
        modules_per_board: 2,
        chips_per_module: 2,
        ..MachineConfig::test_small()
    };
    let plan = FaultPlan::none()
        .with_midrun_death(vec![1, 0], 3) // module [1,0] dies at pass 3
        .with_midrun_death(vec![2], 6) // board [2] dies at pass 6
        .with_reduction_glitches(vec![5, 9]); // two transient glitches
    let run_faulty = || {
        let engine = Grape6Engine::with_fault_plan(&machine, n, &plan).unwrap();
        let mut it = HermiteIntegrator::new(engine, set.clone(), cfg);
        it.run_until(0.125);
        it
    };
    let clean_engine = Grape6Engine::try_new(&machine, n).unwrap();
    let mut clean = HermiteIntegrator::new(clean_engine, set.clone(), cfg);
    clean.run_until(0.125);
    let faulty = run_faulty();

    assert_eq!(faulty.particles().pos, clean.particles().pos);
    assert_eq!(faulty.particles().vel, clean.particles().vel);
    // The failures really happened...
    let report = faulty.engine().fault_report();
    assert_eq!(report.counters.scheduled_deaths, 2);
    assert_eq!(report.counters.units_masked, 2);
    assert!(report.counters.reduction_glitches >= 2);
    assert_eq!(report.alive_chips, 6);
    assert_eq!(report.total_chips, 12);
    // ...and they cost virtual time: fewer chips on the critical path plus
    // recomputed passes.
    assert!(faulty.engine().hardware_cycles() > clean.engine().hardware_cycles());
    // The counters surface through the integrator's RunStats too.
    assert_eq!(faulty.stats().faults, faulty.engine().fault_counters());
    // Same plan ⇒ the same fault story, event for event.
    let again = run_faulty();
    assert_eq!(again.engine().fault_report(), report);
}

#[test]
fn grid2d_communication_advantage_over_copy() {
    // §3.2's reason for the 2-D layout: per-node communication O(N/r)
    // instead of O(N).  Compare the wire bytes of a full force round.
    let n = 120;
    let set = plummer_model(n, &mut StdRng::seed_from_u64(203));
    let link = LinkProfile::ideal();
    // Ring with 4 ranks moves every block O(p) times.
    let (_, ring_clocks) = ring_forces(&set.mass, &set.pos, &set.vel, 0.0, 4, link, 1e-8);
    // Grid with r=2 (4 ranks) reduces locally.
    let (_, grid_clocks) = grid2d_forces(&set.mass, &set.pos, &set.vel, 0.0, 2, link, 1e-8);
    // Both finish; on an ideal link the compute dominates and the grid's
    // slowest rank must not exceed the ring's by much.
    let ring_t = ring_clocks.iter().cloned().fold(0.0, f64::max);
    let grid_t = grid_clocks.iter().cloned().fold(0.0, f64::max);
    assert!(grid_t < ring_t * 1.5, "grid {grid_t} vs ring {ring_t}");
}
