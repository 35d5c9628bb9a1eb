//! End-to-end fault injection: seeded plans, self-test masking, degraded
//! operation, unreliable fabric — with §3.4 bitwise reproducibility as the
//! correctness oracle throughout.

use grape6::core::Grape6Engine;
use grape6::fault::{FaultConfig, FaultPlan, MachineGeometry, NetFaultPlan};
use grape6::nbody::force::{ForceEngine, ForceResult, IParticle, JParticle};
use grape6::nbody::Vec3;
use grape6::net::fabric::run_ranks_faulty;
use grape6::net::{coalesced_wave, EndpointStats, JRecord, LinkProfile, VirtualTransport};
use grape6::system::MachineConfig;

fn machine() -> MachineConfig {
    MachineConfig {
        boards: 2,
        modules_per_board: 2,
        chips_per_module: 2,
        ..MachineConfig::test_small()
    }
}

fn geometry(cfg: &MachineConfig) -> MachineGeometry {
    MachineGeometry {
        boards: cfg.boards,
        modules_per_board: cfg.modules_per_board,
        chips_per_module: cfg.chips_per_module,
    }
}

fn particles(n: usize) -> Vec<JParticle> {
    (0..n)
        .map(|k| {
            let a = k as f64 * 0.57;
            JParticle {
                mass: 1.0 / n as f64,
                t0: 0.0,
                pos: Vec3::new(a.cos(), (1.3 * a).sin(), 0.4 * (2.1 * a).cos()),
                vel: Vec3::new(-0.1 * a.sin(), 0.1 * a.cos(), 0.0),
                ..Default::default()
            }
        })
        .collect()
}

fn probes(m: usize) -> Vec<IParticle> {
    (0..m)
        .map(|k| IParticle {
            pos: Vec3::new(0.03 * k as f64 - 0.8, 0.25, -0.15),
            vel: Vec3::new(0.0, 0.02, 0.0),
            eps2: 1e-4,
        })
        .collect()
}

#[test]
fn seeded_plan_masks_units_and_forces_stay_bitwise_identical() {
    let cfg = machine();
    // Default config: one dead chip, one dead pipeline, one stuck j-memory
    // bit, scattered by the seed.
    let plan = FaultPlan::generate(2024, &FaultConfig::default(), geometry(&cfg));
    assert!(!plan.is_empty());

    let n = 100;
    let js = particles(n);
    let ps = probes(60);

    let mut faulty = Grape6Engine::with_fault_plan(&cfg, n, &plan).unwrap();
    let mut clean = Grape6Engine::try_new(&cfg, n).unwrap();

    // The self-test caught every injected power-on fault (they are all
    // constructed to be detectable) and masked k > 0 units.
    let st = faulty.self_test_report().unwrap();
    assert!(!st.all_passed());
    let masked = st.masked.len();
    assert!(masked > 0, "self-test must mask something");
    assert!(faulty.alive_chips() < clean.alive_chips());

    for (k, j) in js.iter().enumerate() {
        faulty.set_j_particle(k, j);
        clean.set_j_particle(k, j);
    }
    faulty.set_time(0.03125);
    clean.set_time(0.03125);
    let mut got = vec![ForceResult::default(); ps.len()];
    let mut want = vec![ForceResult::default(); ps.len()];
    faulty.compute(&ps, &mut got);
    clean.compute(&ps, &mut want);

    // The §3.4 oracle: the degraded machine returns bit-identical forces.
    assert_eq!(got, want);

    // The run completed with nonzero fault counters and a longer virtual
    // time (self-test passes + fewer chips on the critical path).
    let report = faulty.fault_report();
    assert!(report.counters.selftest_failures > 0);
    assert_eq!(report.counters.units_masked as usize, masked);
    assert!(report.availability() < 1.0);
    assert!(faulty.hardware_cycles() > clean.hardware_cycles());
}

#[test]
fn same_seed_same_event_log_exactly() {
    let cfg = machine();
    let geom = geometry(&cfg);
    let plan_a = FaultPlan::generate(7, &FaultConfig::default(), geom);
    let plan_b = FaultPlan::generate(7, &FaultConfig::default(), geom);
    assert_eq!(plan_a, plan_b, "plan generation is deterministic");
    // A different seed gives a different plan (with overwhelming odds).
    assert_ne!(
        plan_a,
        FaultPlan::generate(8, &FaultConfig::default(), geom)
    );

    let n = 64;
    let js = particles(n);
    let ps = probes(50);
    let run = |plan: &FaultPlan| {
        let mut e = Grape6Engine::with_fault_plan(&cfg, n, plan).unwrap();
        for (k, j) in js.iter().enumerate() {
            e.set_j_particle(k, j);
        }
        e.set_time(0.0);
        let mut out = vec![ForceResult::default(); ps.len()];
        e.compute(&ps, &mut out);
        (e.fault_report(), e.hardware_cycles(), out)
    };
    let (report_a, cycles_a, out_a) = run(&plan_a);
    let (report_b, cycles_b, out_b) = run(&plan_b);
    assert_eq!(report_a, report_b, "event logs must replay exactly");
    assert_eq!(cycles_a, cycles_b);
    assert_eq!(out_a, out_b);
}

#[test]
fn degraded_engine_slows_down_in_the_timing_model_too() {
    use grape6::model::calib::GrapeTiming;
    let cfg = machine();
    let plan = FaultPlan::none().with_dead_module(0, 0);
    let engine = Grape6Engine::with_fault_plan(&cfg, 16, &plan).unwrap();
    assert_eq!(engine.alive_chips(), 6);
    // Feed the surviving chip count into the analytic model: passes
    // stretch by the lost parallelism.
    let full = GrapeTiming {
        chips_per_host: cfg.total_chips(),
        ..GrapeTiming::paper_host()
    };
    let degraded = full.degraded(engine.alive_chips());
    assert!(degraded.pass_time(6000) > full.pass_time(6000));
    assert!(degraded.peak_flops() < full.peak_flops());
}

#[test]
fn lossy_fabric_completes_collectives_with_deterministic_retries() {
    let link = LinkProfile {
        latency: 60.0e-6,
        bandwidth: 1.0e8,
        overhead: 15.0e-6,
    };
    // 20% drops, generous retry budget: everything completes, retries and
    // backoff show up in the measured costs, clocks replay exactly.
    let plan = NetFaultPlan::lossy(99, 200, 32, 1e-4);
    let p = 4;
    let round = || {
        run_ranks_faulty::<Vec<u8>, (Vec<u64>, f64, EndpointStats), _>(p, link, plan, |mut ep| {
            let me = JRecord {
                index: ep.rank() as u64,
                words: Vec::new(),
            };
            let mut gathered = Vec::new();
            for step in 0..5 {
                let mut tr = VirtualTransport::new(&mut ep);
                // A barrier, then a gather: one record per rank.
                coalesced_wave(&mut tr, 2 * step, 0.0, Vec::new(), &[])
                    .expect("retry budget is generous");
                let all = coalesced_wave(&mut tr, 2 * step + 1, 0.0, vec![me.clone()], &[])
                    .expect("retry budget is generous");
                gathered = all.merged.iter().map(|r| r.index).collect();
            }
            (gathered, ep.clock(), ep.stats())
        })
    };
    let a = round();
    for (r, (all, _, _)) in a.iter().enumerate() {
        assert_eq!(*all, vec![0, 1, 2, 3], "rank {r} gather wrong");
    }
    let retransmits: u64 = a.iter().map(|(_, _, s)| s.retransmits).sum();
    assert!(retransmits > 0, "a 20%-lossy fabric must retransmit");
    let backoff: f64 = a.iter().map(|(_, _, s)| s.backoff_seconds).sum();
    assert!(backoff > 0.0);
    assert_eq!(a.iter().filter(|(_, _, s)| s.timeouts > 0).count(), 0);
    // Deterministic replay, clock for clock and counter for counter.
    let b = round();
    for r in 0..p {
        assert_eq!(a[r].1, b[r].1, "rank {r} clock differs across runs");
        assert_eq!(a[r].2, b[r].2, "rank {r} stats differ across runs");
    }
}

#[test]
fn dead_link_times_out_with_typed_error() {
    // 100% loss and a tiny retry budget: the receiver gets a LinkError
    // carrying the flow coordinates, and the timeout burned virtual time.
    let plan = NetFaultPlan::lossy(3, 1000, 4, 5e-5);
    let out = run_ranks_faulty::<u8, Option<(usize, usize, u64, u32, f64)>, _>(
        2,
        LinkProfile::ideal(),
        plan,
        |mut ep| {
            if ep.rank() == 0 {
                ep.send_lossy(1, 77, 32);
                None
            } else {
                let err = match ep.recv_checked(0).unwrap_err() {
                    grape6::net::RecvError::Lost(le) => le,
                    other => panic!("expected a lost link, got {other:?}"),
                };
                Some((err.from, err.to, err.seq, err.attempts, ep.clock()))
            }
        },
    );
    let (from, to, seq, attempts, clock) = out[1].unwrap();
    assert_eq!((from, to, seq, attempts), (0, 1, 0, 4));
    // 4 attempts of exponential backoff: (1+2+4+8) × 5e-5 = 7.5e-4 s.
    assert!((clock - 7.5e-4).abs() < 1e-12, "clock {clock}");
}
