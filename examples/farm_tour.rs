//! A tour of the multi-tenant GRAPE farm.
//!
//! ```text
//! cargo run --release --example farm_tour -- [seed]
//! ```
//!
//! A shared GRAPE installation serves many groups at once: jobs arrive
//! faster than boards free up, some boards are broken on arrival, and
//! some break mid-run.  The farm service multiplexes sessions over a
//! board pool with admission control, fair-share scheduling,
//! checkpoint-based eviction, and fault-aware board rotation — and
//! because of the §3.4 block floating-point property, none of that
//! churn changes a single bit of any tenant's physics.  This example
//! walks the whole story:
//!
//! 1. build a 3-board farm where one board flunks power-on self-test
//!    and another is scheduled to die mid-run;
//! 2. register tenants with different fair-share weights and submit
//!    more jobs than the farm will admit — the excess gets *typed*
//!    rejections with a retry hint, not a hang;
//! 3. run to completion: sessions are time-sliced, evicted to
//!    checkpoints, resumed on whatever healthy board is free, and the
//!    broken boards rotate out of service;
//! 4. print the farm counters and each tenant's six-term breakdown;
//! 5. verify a tenant's final state is bitwise identical to a
//!    dedicated single-tenant run on a healthy board.

use grape6::core::{Grape6Engine, HermiteIntegrator, IntegratorConfig};
use grape6::farm::{Farm, FarmConfig, FarmError, Job, SessionId, TenantSpec};
use grape6::fault::FaultPlan;
use grape6::nbody::ic::plummer::plummer_model;
use grape6::system::MachineConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let n = 48;
    let t_end = 0.0625;

    // One pool board: 2 modules x 2 chips x 16 j-slots = 64 slots, so a
    // 48-particle job fits only if both modules work.
    let board = MachineConfig::builder()
        .boards(1)
        .modules_per_board(2)
        .chips_per_module(2)
        .jmem_capacity(16)
        .build()
        .unwrap();

    // 1. Three boards: #1 healthy, #2 has a dead module (self-test will
    //    mask it, leaving too few slots), #3 dies mid-run.
    let cfg = FarmConfig::builder(board)
        .boards(3)
        .board_plans(vec![
            None,
            Some(FaultPlan::none().with_dead_module(0, 0)),
            Some(FaultPlan::none().with_midrun_death(vec![0, 1], 5)),
        ])
        .max_live_sessions(4)
        .queue_depth(1)
        .quantum(4)
        .ckpt_every(4)
        .build()
        .unwrap();
    let mut farm = Farm::open(cfg).unwrap();
    println!("farm: 3 boards (1 healthy, 1 dead module, 1 mid-run death), ceiling 4 sessions");

    // 2. Six tenants race for four session slots.  Weights 2:1 — the
    //    even tenants get twice the scheduler bandwidth.
    let mut admitted: Vec<(SessionId, u64)> = Vec::new();
    println!("\nsubmissions:");
    for t in 0..6u64 {
        let tid = farm
            .register(TenantSpec::new(if t % 2 == 0 { 2 } else { 1 }))
            .unwrap();
        let ic_seed = 100 * seed + t;
        let job = Job::builder(plummer_model(n, &mut StdRng::seed_from_u64(ic_seed)))
            .t_end(t_end)
            .label(format!("group {t}"))
            .build()
            .unwrap();
        match farm.submit(tid, job) {
            Ok(sid) => {
                println!("  tenant {tid}: admitted as session {sid}");
                admitted.push((sid, ic_seed));
            }
            Err(FarmError::Saturated { retry_after }) => {
                println!("  tenant {tid}: REJECTED Saturated, retry after {retry_after}");
            }
            Err(e) => println!("  tenant {tid}: REJECTED {e}"),
        }
    }

    // 3. Run the whole farm to completion.
    let report = farm.run().expect("no scheduler stall");
    let s = &report.stats;
    println!("\nfarm counters:");
    println!("  admitted {} / submitted {}", s.admitted, s.submitted);
    println!(
        "  completed {}  failed {}  (rounds {}, grants {})",
        s.completed, s.failed, s.rounds, s.grants
    );
    println!(
        "  evictions {}  resumes {}  board rotations {}",
        s.evictions, s.resumes, s.board_rotations
    );
    assert!(report.all_completed(), "every admitted session must finish");
    assert!(s.board_rotations >= 2, "both broken boards rotate out");

    // 4. Per-tenant accounting: fair-share grants and the six-term
    //    measured breakdown (recovery phases included).
    println!("\nper-tenant report:");
    for (tid, t) in &report.tenants {
        println!(
            "  tenant {tid}: weight {}, grants {:>3}, blocksteps {:>4}, busy {:.3e} s, \
             retries {}, restores {}",
            t.weight,
            t.grants,
            t.blocksteps,
            t.breakdown.total(),
            t.recovery.step_retries,
            t.recovery.restores
        );
    }

    // 5. The oracle: multi-tenancy is bitwise invisible.
    let (sid, ic_seed) = admitted[0];
    let mut dedicated = HermiteIntegrator::new(
        Grape6Engine::try_new(&board, n).unwrap(),
        plummer_model(n, &mut StdRng::seed_from_u64(ic_seed)),
        IntegratorConfig::default(),
    );
    dedicated.run_until(t_end);
    let farm_res = farm.take_result(sid).unwrap();
    let farm_set = &farm_res.particles;
    let identical =
        farm_set.pos == dedicated.particles().pos && farm_set.vel == dedicated.particles().vel;
    println!("\nsession {sid} vs dedicated single-tenant run: bitwise identical = {identical}");
    assert!(identical, "farm scheduling must not change the physics");
}
