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
# respawn / evict trio, the transport suite) that live nowhere else.
cargo test -q --locked --workspace

echo "==> cargo clippy --all-targets --locked -- -D warnings"
cargo clippy --all-targets --locked -- -D warnings

echo "==> cargo doc --no-deps --locked (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --locked --quiet

echo "==> schedule bitwise suite across the rayon thread matrix"
# The §3.4 reproducibility gate must hold for any worker count: pin one
# thread, then repeat with the environment default (all cores — a no-op
# under the offline sequential rayon stub, the real matrix on CI hosts).
RAYON_NUM_THREADS=1 cargo test -q --locked --test overlap_bitwise
cargo test -q --locked --test overlap_bitwise

echo "==> overlap bench smoke (release): serial vs parallel vs overlapped"
# Verifies the three schedules are bitwise identical (exit 1 otherwise)
# and emits BENCH_overlap.json with the per-schedule walls.
cargo run --release --locked -p grape6-bench --bin overlap_bench -- 96 16 2

echo "==> SIMD dispatch off: kernel A/B + bitwise suite on the portable lanes"
# GRAPE6_FORCE_SCALAR=1 disables runtime SIMD dispatch, so KernelMode::Simd
# runs the portable lane instance — what a host without AVX2 gets.  The
# whole bitwise matrix and a kernel A/B pass must still hold — same bits,
# no panics.  Runs *before* the real kernel matrix so the final
# BENCH_kernel.json reflects the SIMD-enabled machine.  The chip and arith
# unit tests repeat here because the portable width gives the lane row a
# different padded chunk length — the bound its uninitialised scratch
# rests on.
GRAPE6_FORCE_SCALAR=1 RAYON_NUM_THREADS=1 cargo test -q --locked --test overlap_bitwise
GRAPE6_FORCE_SCALAR=1 cargo test -q --locked -p grape6-chip -p grape6-arith
GRAPE6_FORCE_SCALAR=1 cargo run --release --locked -p grape6-bench --bin kernel_bench -- 8 2 128

echo "==> force-kernel matrix (release): scalar oracle vs lane kernel at every level"
# Runs every kernel variant the host supports (scalar, portable, simd-avx2,
# simd-avx512 where detected) at N=256 and N=512, asserts all land on
# bitwise-identical state over a whole integration (exit 1 otherwise) and
# emits BENCH_kernel.json.  The relational regression guard: the lane
# kernel on the portable instance must never be slower than the oracle,
# and the best x86 level must never be slower than the portable one.
cargo run --release --locked -p grape6-bench --bin kernel_bench -- 16 2 256 512
python3 - <<'EOF'
import json
with open("BENCH_kernel.json") as f:
    r = json.load(f)
if not r["bitwise_identical"]:
    raise SystemExit("REGRESSION: kernel variants diverged bitwise")
for entry in r["entries"]:
    n = entry["n"]
    if not entry["bitwise_identical"]:
        raise SystemExit(f"REGRESSION: N={n}: kernel variants diverged bitwise")
    by = {v["label"]: v["interactions_per_sec"] for v in entry["variants"]}
    scalar, portable = by["scalar"], by["portable"]
    simd = {k: v for k, v in by.items() if k.startswith("simd")}
    row = ", ".join(f"{k} {v:.3e}" for k, v in by.items())
    print(f"kernel guard: N={n}: {row} inter/s")
    if portable < scalar:
        raise SystemExit(f"REGRESSION: N={n}: portable lanes slower than the scalar oracle")
    if simd and max(simd.values()) < portable:
        raise SystemExit(f"REGRESSION: N={n}: best SIMD level slower than the portable lanes")
EOF

echo "==> crossover bench smoke (release): 1-16 nodes x 3 network schedules"
# Verifies the chained wave digests are identical across virtual /
# split-phase / TCP / UDS backends (exit 1 otherwise) and emits
# BENCH_crossover.json.  The guard: the coalesced + overlapped schedule's
# 4-node network share must beat the same run's sequential schedule.
cargo run --release --locked -p grape6-bench --bin crossover_bench -- 128 0.03125
python3 - <<'EOF'
import json
with open("BENCH_crossover.json") as f:
    r = json.load(f)
if not r["bitwise"]["identical"]:
    raise SystemExit("REGRESSION: wave digests diverged across transports/schedules")
ovl = r["four_node"]["coalesced_overlapped_share"]
seq = r["four_node"]["sequential_share"]
print(f"crossover guard: 4-node net share sequential {seq:.3f}, "
      f"coalesced+overlapped {ovl:.3f}")
if ovl >= seq:
    raise SystemExit("REGRESSION: coalesced+overlapped schedule no longer beats "
                     "the sequential network share")
EOF

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
# that must be refused.  Rank death needs real processes: next stage.
cargo run --release --locked -p grape6-bench --bin chaos_soak

echo "==> cluster chaos: SIGKILL + SIGSTOP real rank processes mid-run"
# Four supervised cluster_node processes on loopback TCP: one rank is
# killed mid-wave and respawned from its coordinated checkpoint, another
# is stalled past the read-deadline budget, shrunk, and evicted on wake.
# The binary exits 1 unless every finisher prints the unfaulted digest
# and both recovery modes ran; the guard re-checks from BENCH_chaos.json.
cargo build --release --locked -p grape6-bench --bin cluster_node
cargo run --release --locked -p grape6-bench --bin cluster_chaos
python3 - <<'EOF'
import json
with open("BENCH_chaos.json") as f:
    r = json.load(f)
if r["violations"]:
    raise SystemExit(f"REGRESSION: cluster chaos violations: {r['violations']}")
if not r["digests_match"]:
    raise SystemExit("REGRESSION: a recovered rank diverged from the clean digest")
if r["recoveries"] < 2:
    raise SystemExit("REGRESSION: kill+stall schedule ran fewer than 2 recoveries")
finishers = [n for n in r["nodes"] if n["exit"] == 0]
if any(n["digest"] != r["clean_digest"] for n in finishers):
    raise SystemExit("REGRESSION: finisher digest mismatch in BENCH_chaos.json")
if not any(n["respawned"] for n in finishers):
    raise SystemExit("REGRESSION: the respawned rank did not finish")
stalled = [n for n in r["nodes"] if n["rank"] == r["schedule"]["stall_rank"]]
if not any(n["exit"] == 4 for n in stalled):
    raise SystemExit("REGRESSION: the stalled rank was not evicted (exit 4)")
cost = r["recovery_cost"]
if cost["term"] != "sync" or cost["recover_seconds"] <= 0:
    raise SystemExit("REGRESSION: recovery cost not recorded under the sync term")
print(f"chaos guard: {len(finishers)} finishers on digest {r['clean_digest']}, "
      f"{r['recoveries']} recoveries, {cost['recover_seconds']:.3f} s sync-term "
      f"recovery cost — ok")
EOF

echo "==> farm soak: multi-tenant scenarios against the shared board pool"
# Oversubscribed seeded runs with two injected board faults.  The binary
# exits 1 on any missed rejection/rotation, incomplete session, bitwise
# divergence, or scheduler stall (the deadlock signal), and emits
# BENCH_farm.json; the guard re-checks the invariants from the JSON.
cargo run --release --locked -p grape6-bench --bin farm_soak
python3 - <<'EOF'
import json
with open("BENCH_farm.json") as f:
    r = json.load(f)
if not r["bitwise_ok"]:
    raise SystemExit("REGRESSION: a farm session diverged from its dedicated run")
for run in r["runs"]:
    seed = run["seed"]
    if run["completed"] != run["admitted"]:
        raise SystemExit(f"REGRESSION: seed {seed}: admitted session did not complete")
    if run["rejected_saturated"] + run["rejected_queue_full"] == 0:
        raise SystemExit(f"REGRESSION: seed {seed}: backpressure never fired")
    if run["board_rotations"] < 2:
        raise SystemExit(f"REGRESSION: seed {seed}: a faulted board was not rotated out")
    if run["evictions"] < 1 or run["resumes"] < 1:
        raise SystemExit(f"REGRESSION: seed {seed}: no eviction/resume traffic")
    print(f"farm guard: seed {seed}: {run['completed']}/{run['admitted']} done, "
          f"{run['board_rotations']} rotations, {run['evictions']} evictions — ok")
EOF

echo "==> farm net soak: the farm behind a socket, clients as processes"
# The full acceptance scenario on both transports: an oversubscribed
# farm_server with two injected board faults, a SIGKILLed client whose
# session is detached, torn-frame + mid-handshake vandal connections,
# and two surviving workers whose fetched results must be bitwise
# identical to dedicated in-process runs.  The binary exits 1 on any
# violation and emits BENCH_farm_net.json; the guard re-checks the JSON.
cargo run --release --locked -p grape6-bench --bin farm_net_soak
python3 - <<'EOF'
import json
with open("BENCH_farm_net.json") as f:
    r = json.load(f)
if not r["bitwise_ok"]:
    raise SystemExit("REGRESSION: a wire-fetched result diverged from its dedicated run")
for run in r["runs"]:
    kind = run["kind"]
    if not run["ok"]:
        raise SystemExit(f"REGRESSION: {kind}: run-level invariants failed")
    if run["digests_ok"] != run["jobs_done"] or run["jobs_done"] < 4:
        raise SystemExit(f"REGRESSION: {kind}: {run['digests_ok']}/{run['jobs_done']} "
                         "bitwise results (want 4/4)")
    if run["saturated_denials"] < 1:
        raise SystemExit(f"REGRESSION: {kind}: backpressure never crossed the wire")
    if run["torn_frames"] < 1:
        raise SystemExit(f"REGRESSION: {kind}: the torn frame was not classified")
    if run["client_deaths"] < 1:
        raise SystemExit(f"REGRESSION: {kind}: no client death was detected")
    if run["detached"] < 1:
        raise SystemExit(f"REGRESSION: {kind}: the killed client's session "
                         "was not detached")
    if run["completed"] < 4:
        raise SystemExit(f"REGRESSION: {kind}: fewer than 4 sessions completed")
    if run["board_rotations"] < 2:
        raise SystemExit(f"REGRESSION: {kind}: a faulted board was not rotated out")
    print(f"farm net guard: {kind}: {run['digests_ok']}/{run['jobs_done']} bitwise, "
          f"{run['saturated_denials']} saturated denials, {run['torn_frames']} torn, "
          f"{run['client_deaths']} deaths, {run['detached']} detached, "
          f"{run['board_rotations']} rotations — ok")
EOF

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
# 4 x — board rotation plus the client's 10 ms poll; with a read timeout on
# the server's request path it read 35 x.  A timer creeping back onto that
# path turns this red.
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
