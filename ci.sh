#!/usr/bin/env bash
# Local CI: the steps .github/workflows/ci.yml runs, in the same order. Two
# local-only extras: the build log is saved and warnings outside the -Werror
# scope are printed (informational, never failing), and the stream sweep
# writes its JSON next to the build.
#
# Configure the Release preset, build everything with -j, compile every bench
# and example (they sit off the default target, so an interface change could
# otherwise break one unnoticed), run the fast CTest preset (everything except
# LABELS slow), then run the batched-vs-single-row parity suites explicitly by
# label, a serve throughput smoke run covering all six detectors, one quick
# pass of the training-step bench, GBRF and VARADE stream sweeps
# checksum-pinned to OnlineMonitor, and two
# network-serving smokes: start varade-served on a Unix socket (then on a
# shm: bootstrap socket with batched frames), drive it with forked client
# processes, and shut it down over the wire; finally build perfbench and run
# each of its workloads for one second against its correctness check.
# src/core, src/serve, and src/net are compiled with -Werror unconditionally,
# so a warning in any of them breaks the build itself.
#
# --sanitize instead builds the library and tests under ASan + UBSan
# (RelWithDebInfo, VARADE_SANITIZE=ON, separate build-asan tree) and runs the
# parity and training labels — the batched gathers and native score_batch
# paths of all six detectors, including the fuzz suite, the packed nn forward
# kernels (one per layer, shared by training and inference) against the
# test-local scalar reference (test_nn_layers), the blocked LSTM step against
# its per-unit reference (test_nn_lstm), and the training loop with its
# losses, optimizer, weight serializer and every neural fit, memory-checked.
#
# --numeric checks the numeric contract across builds: it builds
# bench_fingerprint twice, once with the default flags and once with
# -march=x86-64-v3 (AVX2 + FMA), runs both on this host and diffs the output
# (the trained loss histories, every detector's score hash and a simulator
# recording's hash) byte for byte. Then it builds the tests in the
# -march=x86-64-v3 tree and runs the parity label there: the packed forward
# kernels fuse multiply-adds inside target("avx2,fma") wrappers, and this
# build compiles their portable copies with FMA available too (left unfused
# by -ffp-contract=off), so both tables must still match the scalar
# references bit for bit. It fails rather than skips
# on a host without AVX2/FMA. Both builds run on one host because libm may
# dispatch exp/sin on the CPU: identity across hosts stays unverified.
#
# --tsan builds under ThreadSanitizer (VARADE_TSAN=ON, separate build-tsan
# tree) and runs the concurrency label — the async ingestion runtime
# (lock-free rings, backpressure, multi-producer parity), the sharded
# runtime (multi-engine parity at shards {1,2,4,auto} and all six detectors
# on clone_fitted() replicas), and the shm ring's SPSC producer/consumer pair
# with doorbell arming (test_net_wire) race-checked — then repeats the
# /metrics scrape test and the scores-ready hook test ten times each.
set -euo pipefail

cd "$(dirname "$0")"

BUILD_DIR="build"
JOBS="${JOBS:-$(nproc)}"

if [[ "${1:-}" == "--sanitize" ]]; then
  BUILD_DIR="build-asan"
  echo "== configure (ASan + UBSan, RelWithDebInfo) =="
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVARADE_SANITIZE=ON \
    -DVARADE_BUILD_BENCH=OFF \
    -DVARADE_BUILD_EXAMPLES=OFF

  echo "== build (-j$JOBS) =="
  cmake --build "$BUILD_DIR" -j "$JOBS"

  echo "== test (parity and training labels under ASan/UBSan) =="
  ctest --test-dir "$BUILD_DIR" -L 'parity|training' --output-on-failure -j "$JOBS"

  echo "CI OK (sanitize)"
  exit 0
fi

if [[ "${1:-}" == "--numeric" ]]; then
  for FLAG in avx2 fma; do
    grep -qw "$FLAG" /proc/cpuinfo \
      || { echo "FATAL: this host lacks $FLAG; --numeric needs an x86-64-v3 CPU"; exit 1; }
  done
  # numeric_build <build dir> <CMAKE_CXX_FLAGS> <VARADE_BUILD_TESTS>
  numeric_build() {
    echo "== configure + build bench_fingerprint (CXX flags: '$2') =="
    cmake -B "$1" -S . \
      -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_CXX_FLAGS="$2" \
      -DVARADE_BUILD_TESTS="$3" \
      -DVARADE_BUILD_EXAMPLES=OFF
    cmake --build "$1" -j "$JOBS" --target bench_fingerprint
    "$1/bench/bench_fingerprint" > "$1/fingerprint.txt"
  }
  numeric_build build-numeric "" OFF
  numeric_build build-numeric-v3 "-march=x86-64-v3" ON

  echo "== diff: default vs -march=x86-64-v3 =="
  diff -u build-numeric/fingerprint.txt build-numeric-v3/fingerprint.txt
  cat build-numeric/fingerprint.txt

  echo "== build + test (parity label, -march=x86-64-v3) =="
  cmake --build build-numeric-v3 -j "$JOBS"
  ctest --test-dir build-numeric-v3 -L parity --output-on-failure -j "$JOBS"

  echo "CI OK (numeric)"
  exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
  BUILD_DIR="build-tsan"
  echo "== configure (TSan, RelWithDebInfo) =="
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVARADE_TSAN=ON \
    -DVARADE_BUILD_BENCH=OFF \
    -DVARADE_BUILD_EXAMPLES=OFF

  echo "== build (-j$JOBS) =="
  cmake --build "$BUILD_DIR" -j "$JOBS"

  echo "== test (concurrency label under ThreadSanitizer) =="
  ctest --test-dir "$BUILD_DIR" -L concurrency --output-on-failure -j "$JOBS"

  # The /metrics scrape reads the live connection count while the poll loop
  # accepts and drops connections; a race there shows in most runs but not
  # all, so one pass proves nothing: repeat it.
  echo "== test (metrics endpoint x10 under ThreadSanitizer) =="
  "$BUILD_DIR/tests/test_net_wire" \
    --gtest_filter=NetE2E.MetricsEndpointServesPrometheusText --gtest_repeat=10

  # The scores-ready hook races the scorers' emits against the consumer's
  # reset-then-drain; a lost wakeup or a race needs an unlucky interleaving,
  # so this test is repeated too.
  echo "== test (scores-ready hook x10 under ThreadSanitizer) =="
  "$BUILD_DIR/tests/test_serve_runtime" \
    --gtest_filter=AsyncScoringRuntime.ScoresReadyHookNeverLosesAWakeup --gtest_repeat=10

  echo "CI OK (tsan)"
  exit 0
fi

echo "== configure (Release preset) =="
cmake --preset default

echo "== build (-j$JOBS) =="
cmake --build "$BUILD_DIR" -j "$JOBS" 2>&1 | tee "$BUILD_DIR/build.log"

# src/core and src/serve are compiled -Werror, so any warning there already
# failed the build. Surface warnings elsewhere without failing (informational).
if grep -E "warning:" "$BUILD_DIR/build.log" | grep -v "_deps" > "$BUILD_DIR/warnings.log"; then
  echo "-- warnings outside -Werror scope:"
  cat "$BUILD_DIR/warnings.log"
fi

echo "== build (every bench and example) =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target benches examples

echo "== test (fast preset: -LE slow) =="
ctest --preset fast

echo "== test (parity label: batched == single-row, all six detectors) =="
ctest --test-dir "$BUILD_DIR" -L parity --output-on-failure -j "$JOBS"

echo "== smoke: serve throughput bench (quick, all six detectors, async + sharded) =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_serve_throughput
"$BUILD_DIR/bench/bench_serve_throughput" --quick --detector all --async --shards 2

echo "== smoke: VARADE training step bench (quick: forward, backward and Adam ms per batch) =="
"$BUILD_DIR/bench/bench_train_step" --quick

echo "== smoke: fleet-scale stream sweep (10k SoA streams, checksum vs OnlineMonitor) =="
# The sweep exits non-zero if any per-stream score sum diverges from the
# per-archetype OnlineMonitor baseline by a single bit.
"$BUILD_DIR/bench/bench_serve_throughput" --stream-sweep 10000 --samples 50 \
  --json "$BUILD_DIR/stream_sweep_smoke.json"

echo "== smoke: VARADE stream sweep (1k streams of streamed per-layer state, checksum vs OnlineMonitor) =="
# VARADE keeps one ring of activation columns per conv layer per stream in
# place of the context ring; any one-bit divergence from the full-window
# OnlineMonitor baseline fails the sweep.
"$BUILD_DIR/bench/bench_serve_throughput" --stream-sweep 1000 --samples 200 --detector VARADE \
  --json "$BUILD_DIR/stream_sweep_varade_smoke.json"

echo "== smoke: net serving (in-process daemon, forked clients, checksum-pinned) =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_net_throughput varade-served
"$BUILD_DIR/bench/bench_net_throughput" --quick

echo "== smoke: varade-served daemon + /metrics scrape under load, SHUTDOWN over the wire =="
NET_SOCK="/tmp/varade_ci_$$.sock"
NET_LOG="$BUILD_DIR/served_smoke.log"
"$BUILD_DIR/src/net/varade-served" --listen "unix:$NET_SOCK" \
  --metrics tcp:127.0.0.1:0 --streams 8 --quiet > "$NET_LOG" &
DAEMON_PID=$!
for _ in $(seq 1 100); do [[ -S "$NET_SOCK" ]] && grep -q '^metrics on ' "$NET_LOG" && break; sleep 0.2; done
[[ -S "$NET_SOCK" ]] || { echo "FATAL: daemon never bound $NET_SOCK"; kill "$DAEMON_PID"; exit 1; }
METRICS_PORT="$(sed -n 's/^metrics on tcp:.*:\([0-9]*\)$/\1/p' "$NET_LOG")"
[[ -n "$METRICS_PORT" ]] || { echo "FATAL: no metrics port in $NET_LOG"; kill "$DAEMON_PID"; exit 1; }
# Scrape while client load is in flight: --scrape-metrics asserts the key
# series are present and that the counters advance monotonically between two
# scrapes (see bench_net_throughput.cpp).
"$BUILD_DIR/bench/bench_net_throughput" \
  --connect "unix:$NET_SOCK" --clients 2 --streams 8 --samples 300 &
LOAD_PID=$!
"$BUILD_DIR/bench/bench_net_throughput" --scrape-metrics "tcp:127.0.0.1:$METRICS_PORT"
wait "$LOAD_PID"
"$BUILD_DIR/bench/bench_net_throughput" \
  --connect "unix:$NET_SOCK" --clients 2 --streams 8 --samples 300 --shutdown
wait "$DAEMON_PID"
# The exit report prints even under --quiet, and its accounting reconciles.
grep -q '^shutdown: .* samples pushed, .* scored, ' "$NET_LOG" \
  || { echo "FATAL: daemon exit report missing from $NET_LOG"; cat "$NET_LOG"; exit 1; }
rm -f "$NET_SOCK"

echo "== smoke: shared-memory transport (daemon on shm:, batch 64, checksum vs baseline) =="
# --smoke regenerates the sequential OnlineMonitor baseline in the bench
# process (both sides self-train from the same seeds) and exits nonzero on
# any checksum divergence or if the shm push path degenerates into
# doorbell-per-sample syscalls. --shutdown stops the daemon over the wire.
SHM_SOCK="/tmp/varade_ci_shm_$$.sock"
SHM_LOG="$BUILD_DIR/served_shm_smoke.log"
"$BUILD_DIR/src/net/varade-served" --listen "shm:$SHM_SOCK" --streams 8 --quiet > "$SHM_LOG" &
SHM_PID=$!
for _ in $(seq 1 100); do [[ -S "$SHM_SOCK" ]] && break; sleep 0.2; done
[[ -S "$SHM_SOCK" ]] || { echo "FATAL: daemon never bound $SHM_SOCK"; kill "$SHM_PID"; exit 1; }
"$BUILD_DIR/bench/bench_net_throughput" \
  --connect "shm:$SHM_SOCK" --clients 2 --streams 8 --samples 300 \
  --batch 64 --smoke --shutdown
wait "$SHM_PID"
grep -q '^shutdown: .* samples pushed, .* scored, ' "$SHM_LOG" \
  || { echo "FATAL: daemon exit report missing from $SHM_LOG"; cat "$SHM_LOG"; exit 1; }
rm -f "$SHM_SOCK"

echo "== perfbench: build from source + 1 s run per workload (scores vs OnlineMonitor) =="
# perfbench is its own CMake project (built under .bench_build/) linking the
# engine, runtime and server APIs. Each run exits non-zero on a build failure
# or on any score that differs by one bit from a sequential OnlineMonitor.
for WORKLOAD in varade-cell gbrf-imu varade-paced; do
  python3 perfbench/run.py --workload "$WORKLOAD" --seed 1 --seconds 1 --trace 0 \
    > "$BUILD_DIR/perfbench_$WORKLOAD.log"
  tail -n 1 "$BUILD_DIR/perfbench_$WORKLOAD.log"
done

echo "CI OK"
