//! Probes of `farm`: the frame codec on the workload's own job, the job
//! on a dedicated board, and the scheduler without sockets.

use std::hint::black_box;
use std::time::Instant;

use grape6_farm::{Farm, FarmFrame, Job, SessionId, TenantReport, TenantSpec};

use super::Sink;
use crate::harness::Ctx;
use crate::stats;
use crate::workloads::farm::{self, JOB_T_END};

/// Jobs the dedicated and scheduler probes run, the first of the workload's
/// stream: one per outstanding slot of `farm_uds`, so sessions outnumber
/// boards as they do there.
const PROBE_JOBS: usize = 4;

pub fn run(ctx: &Ctx, sink: &mut Sink) {
    // The two bulk frames of a job: its submission and its result.
    let sets: Vec<_> = (0..PROBE_JOBS as u64)
        .map(|k| farm::job_set(ctx.seed, k))
        .collect();
    let set = sets[0].clone();
    let submit = FarmFrame::Submit {
        seq: 1,
        t_end: JOB_T_END.to_bits(),
        label: "bench-0".into(),
        set: set.clone(),
    };
    let result = FarmFrame::Result {
        session: SessionId {
            tenant: 1,
            index: 0,
        },
        particles: set,
        report: TenantReport::default(),
    };
    let encode_ns = sink.time(2.0, || {
        black_box(black_box(&submit).encode());
        black_box(black_box(&result).encode());
    });
    sink.set("farm.wire.encode_ns_per_frame", encode_ns);
    let (submit_bytes, result_bytes) = (submit.encode(), result.encode());
    sink.set(
        "farm.wire.bytes_per_job",
        (submit_bytes.len() + result_bytes.len()) as f64,
    );
    let decode_ns = sink.time(2.0, || {
        black_box(FarmFrame::decode(black_box(&submit_bytes)).expect("own bytes decode"));
        black_box(FarmFrame::decode(black_box(&result_bytes)).expect("own bytes decode"));
    });
    sink.set("farm.wire.decode_ns_per_frame", decode_ns);

    // Each job on a dedicated board, three times; median per job.
    let dedicated_ms: Vec<f64> = sets
        .iter()
        .map(|set| {
            let runs: Vec<f64> = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(farm::dedicated(set.clone()));
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            stats::median(&stats::sorted(&runs))
        })
        .collect();
    sink.set(
        "farm.job.dedicated_ms",
        stats::median(&stats::sorted(&dedicated_ms)),
    );

    // The same jobs through `Farm::submit` + `Farm::run` in-process: two
    // batches of `PROBE_JOBS` jobs, so sessions outnumber boards exactly as
    // in `farm_uds` but no socket, codec or poll timer is involved.
    const BATCHES: usize = 2;
    let mut farm = Farm::open(farm::farm_config()).expect("farm opens");
    let tenant = farm.register(TenantSpec::new(1)).expect("tenant registers");
    let jobs: Vec<Job> = sets
        .iter()
        .map(|set| {
            Job::builder(set.clone())
                .t_end(JOB_T_END)
                .build()
                .expect("valid job")
        })
        .collect();
    let t0 = Instant::now();
    for _ in 0..BATCHES {
        let sids: Vec<SessionId> = jobs
            .iter()
            .map(|j| farm.submit(tenant, j.clone()).expect("admitted"))
            .collect();
        farm.run().expect("scheduler makes progress");
        for sid in sids {
            black_box(farm.take_result(sid).expect("job completed"));
        }
    }
    let farm_ms = t0.elapsed().as_secs_f64() * 1e3;
    let blocksteps = farm
        .tenant_report(tenant)
        .map_or(0, |r| r.blocksteps)
        .max(1);
    sink.set(
        "farm.sched.round_ns_per_blockstep",
        farm_ms * 1e6 / blocksteps as f64,
    );
    let dedicated_total_ms = BATCHES as f64 * dedicated_ms.iter().sum::<f64>();
    sink.set(
        "farm.sched.overhead_frac",
        (farm_ms - dedicated_total_ms) / dedicated_total_ms,
    );
}
