#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --release --locked"
cargo build --release --locked

echo "==> cargo test -q --locked --workspace"
# Tier-1 is the root package's integration tests; --workspace adds every
# crate's unit tests (the farm scheduler, the ClusterSupervisor shrink /
# respawn / evict trio, the transport suite) that live nowhere else, and
# grape6-bench's transport_procs: four real cluster_node processes, one
# SIGKILLed and respawned from its checkpoint, one SIGSTOPped, shrunk and
# evicted, every finisher on the unfaulted digest.
cargo test -q --locked --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --locked -- -D warnings

echo "==> cargo doc --workspace --no-deps --locked (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked --quiet

echo "==> bitwise suites across the fan-out thread matrix"
# The §3.4 reproducibility gate must hold for any worker count, on real
# threads: GRAPE6_THREADS=1 keeps every fan-out on its caller (no worker
# is spawned), GRAPE6_THREADS=2 walks the boards / modules on the caller
# plus one `nbody_core::fanout` worker — whatever this host's core count.
# model_vs_simulation rides along as the overlapped schedule's virtual-time
# gate: its spans must not depend on how many threads walk the boards.  The
# copy-algorithm suites run each rank on its own thread, every rank's
# engine fanning out too, so rank threads meet the busy pool and run their
# passes on themselves — same bits either way.
for threads in 1 2; do
  GRAPE6_THREADS=$threads cargo test -q --locked \
    --test overlap_bitwise --test cross_engine --test farm_bitwise --test fault_injection \
    --test model_vs_simulation --test parallel_vs_serial --test checkpoint_resume --test failover
done

echo "==> SIMD dispatch off: bitwise suite on the portable lanes"
# GRAPE6_FORCE_SCALAR=1 disables runtime SIMD dispatch, so KernelMode::Simd
# runs the portable lane instance — what a host without AVX2 gets.  The
# whole bitwise matrix must still hold — same bits, no panics.  The chip
# and arith unit tests and the hardware proptests repeat here because the
# portable instance is a different shape of the same kernel, not a
# narrower copy of it: i-registers go four to a lane group instead of
# eight, so group boundaries, ragged last groups and the ascending-i
# error fallback fall on different registers of every block.
# fault_injection rides along: stuck j-memory lines are the in-tree path by
# which words the host never wrote reach the j side.  grape6-system rides
# along for the ensemble's plain-vs-comparator pass test: the comparator
# is an option on the one pass at every level, and its forces and cycles
# must equal the plain pass's on these lanes too.
GRAPE6_FORCE_SCALAR=1 GRAPE6_THREADS=2 cargo test -q --locked --test overlap_bitwise \
  --test fault_injection
GRAPE6_FORCE_SCALAR=1 cargo test -q --locked --test props_hw
GRAPE6_FORCE_SCALAR=1 cargo test -q --locked -p grape6-chip -p grape6-arith -p grape6-system

echo "==> crossover bench smoke (release): 1-16 nodes x 3 network schedules"
# Exits 1 unless the chained wave digests are identical across virtual /
# split-phase / TCP / UDS backends and the coalesced + overlapped
# schedule's 4-node network share beats the same run's sequential one.
cargo run --release --locked -p grape6-bench --bin crossover_bench -- 128 0.03125

echo "==> sync ablation (release): butterfly vs central barrier, 3 NICs x 4/16 hosts"
# The paper's §4.4 ordering: exits 1 unless the central-coordinator
# barrier is slower than the butterfly (an empty coalesced wave) on every
# NIC x p row, both measured frame for frame on the virtual fabric.
cargo run --release --locked -p grape6-bench --bin ablation_sync

echo "==> block-FP ablation (release): f64 vs Kahan vs block-FP sums"
# §3.4's reason for block FP: exits 1 unless the block-FP sum is
# bit-identical over every reordering of its input (the f64 and Kahan sums
# are reported beside it, with ns per add for all three).
cargo run --release --locked -p grape6-bench --bin ablation_blockfp

echo "==> example smoke tests (release)"
cargo run --release --locked --example quickstart
cargo run --release --locked --example fault_tour
cargo run --release --locked --example farm_tour

echo "==> farm service smoke (release): one server, two client processes"
# The wire-protocol happy path without fault injection: a farm_server on
# TCP and on UDS, two farm_client tenants each submitting one job and
# checking its digest; the server drains, idles out, and exits 0.
cargo build --release --locked -p grape6-bench --bin farm_server --bin farm_client
for kind in tcp uds; do
  smoke_dir=$(mktemp -d "${TMPDIR:-/tmp}/farm_smoke_${kind}.XXXXXX")
  ./target/release/farm_server "$smoke_dir" "$kind" --nonce=0xc1 --boards=2 \
    --max-live=2 --idle-exit-ms=1500 --max-wall-ms=60000 &
  server_pid=$!
  ./target/release/farm_client "$smoke_dir" "$kind" --nonce=0xc1 --mode=run \
    --jobs=1 --n=32 --t-end=0.03125 --seed=21 &
  client_a=$!
  ./target/release/farm_client "$smoke_dir" "$kind" --nonce=0xc1 --mode=run \
    --jobs=1 --n=32 --t-end=0.03125 --seed=22 &
  client_b=$!
  wait "$client_a"
  wait "$client_b"
  wait "$server_pid"
  rm -rf "$smoke_dir"
  echo "farm service smoke ($kind): ok"
done

echo "==> chaos soak: seeded fault schedules against the recovery stack"
# Per seed: a faulted machine under RunSupervisor bitwise against a healthy
# one, a crash-to-disk / restore / continue leg, and a corrupted checkpoint
# that must be refused.  Rank death needs real processes: that scenario is
# the transport_procs test in the --workspace stage above.
cargo run --release --locked -p grape6-bench --bin chaos_soak

echo "==> farm soak: multi-tenant scenarios against the shared board pool"
# Oversubscribed seeded runs with two injected board faults.  The binary
# exits 1 on any missed rejection/rotation, incomplete session, bitwise
# divergence, or scheduler stall (the deadlock signal).
cargo run --release --locked -p grape6-bench --bin farm_soak

echo "==> farm net soak: the farm behind a socket, clients as processes"
# The full acceptance scenario on both transports: an oversubscribed
# farm_server with two injected board faults, a SIGKILLed client whose
# session is detached, torn-frame + mid-handshake vandal connections,
# and two surviving workers whose fetched results must be bitwise
# identical to dedicated in-process runs.  The binary exits 1 on any
# violation.
cargo run --release --locked -p grape6-bench --bin farm_net_soak

echo "==> repo benchmark smoke: the BENCHMARK.json command with --smoke"
# All five workloads in under 20 s with their fail-closed output checks
# (scalar replay digests, sweep force bits and neighbour lists, farm result
# digests); a non-zero exit fails the gate.  It builds benchmark/ against
# the workspace crates, so it also proves no signature the benchmark calls
# was broken.  Cargo may rewrite the stale benchmark/Cargo.lock on the way:
# do not commit that rewrite.
#
# Then the farm latency gate, read from the result the run just wrote: a
# job through FarmClient -> UDS -> FarmServer may cost at most 15 x the
# same job on a dedicated board (median over median, so the ratio depends
# on neither the machine nor its timer tick).  The smoke run reads about
# 6 x (5.6 to 7.2 seen) — board rotation plus the client's 10 ms poll; it
# read about 4 x until PR 17 made the dedicated job 1.5 x faster and left
# the poll where it was, so the ratio rose while the latency fell.  The
# limit stays at 15:
# with a read timeout on the server's request path it read 35 x, and a
# timer creeping back onto that path still turns this red.
python3 - <<'EOF'
import glob, json, os, subprocess, sys, time
with open("BENCHMARK.json") as f:
    command = json.load(f)["command"]
started = time.time()
code = subprocess.call(command + ["--smoke"])
if code != 0:
    sys.exit(code)
fresh = [p for p in glob.glob("benchmark/out/result-farm_uds-*-trace0.json")
         if os.path.getmtime(p) >= started - 1]
if not fresh:
    raise SystemExit("REGRESSION: the smoke run left no farm_uds result behind")
with open(max(fresh, key=os.path.getmtime)) as f:
    ratio = json.load(f)["metrics"]["farm.job.latency_over_dedicated"]["value"]
if ratio > 15:
    raise SystemExit(f"REGRESSION: farm_uds job latency is {ratio:.1f} x dedicated "
                     "(limit 15): something on the server's request path waits")
print(f"farm latency guard: {ratio:.1f} x dedicated (limit 15) — ok")
EOF

echo "==> ci.sh: all green"
