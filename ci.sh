#!/usr/bin/env bash
# Local CI: the steps .github/workflows/ci.yml runs, in the same order. Two
# local-only extras: the build log is saved and warnings outside the -Werror
# scope are printed (informational, never failing), and the stream sweep
# writes its JSON next to the build.
#
# Configure the Release preset, build everything with -j, compile every bench
# and example (they sit off the default target, so an interface change could
# otherwise break one unnoticed), run the fast CTest preset (everything except
# LABELS slow; it includes test_served, which drives the built varade-served
# from forked client processes over unix: and shm:, scrapes /metrics under
# load, stops it with SHUTDOWN and checks every score bit for bit against
# OnlineMonitor), then run the batched-vs-single-row parity suites explicitly
# by label, a serve throughput smoke run covering all six detectors, one
# quick pass of the training-step bench, GBRF and VARADE stream sweeps
# checksum-pinned to OnlineMonitor, and finally build perfbench and run each
# of its workloads for one second against its correctness check.
# src/core, src/serve, and src/net are compiled with -Werror unconditionally,
# so a warning in any of them breaks the build itself.
#
# --sanitize instead builds the library and tests under ASan + UBSan
# (RelWithDebInfo, VARADE_SANITIZE=ON, separate build-asan tree) and runs the
# parity and training labels — the batched gathers and native score_batch
# paths of all six detectors, including the fuzz suite, the packed nn forward
# kernels (one per layer, shared by training and inference) against the
# test-local scalar reference (test_nn_layers), the blocked LSTM step against
# its per-unit reference (test_nn_lstm), the training loop with its
# losses, optimizer, weight serializer and every neural fit, and an
# ASan-built varade-served process driven by forked clients (test_served),
# memory-checked.
#
# --numeric checks the numeric contract across builds: it builds
# bench_fingerprint twice, once with the default flags and once with
# -march=x86-64-v3 (AVX2 + FMA), runs both on this host and diffs the output
# (the trained loss histories, every detector's score hash and a simulator
# recording's hash) byte for byte, against each other and against the
# committed bench/fingerprint.golden, so a change that moves a trained or
# scored bit in both builds alike fails too. In both builds it also runs
# bench_expf_exhaustive, which puts all 2^32 floats through nn::expf and
# every kernel table's mean_exp_rows kernel: the owned paths must agree and
# their hash must equal bench/expf.golden, which no libm enters; the count of
# floats where this host's libm differs goes to the log, for information
# only. Then it builds the tests in the
# -march=x86-64-v3 tree and runs the parity label there: the packed forward
# kernels fuse multiply-adds inside target("avx2,fma") wrappers, and this
# build compiles their portable copies with FMA available too (left unfused
# by -ffp-contract=off), so both tables must still match the scalar
# references bit for bit. It fails rather than skips
# on a host without AVX2/FMA. Both builds run on one host because libm may
# dispatch tanh/sin on the CPU: identity across hosts stays unverified.
#
# --tsan builds under ThreadSanitizer (VARADE_TSAN=ON, separate build-tsan
# tree) and runs the concurrency label — the async ingestion runtime
# (lock-free rings, backpressure, multi-producer parity), the sharded
# runtime (multi-engine parity at shards {1,2,4,auto} and all six detectors
# on clone_fitted() replicas), and the shm ring's SPSC producer/consumer pair
# with doorbell arming (test_net_wire), and a TSan-built varade-served
# process under forked clients (test_served) race-checked — then repeats the
# /metrics scrape test and the scores-ready hook test ten times each.
#
# --obs-off builds with the telemetry compiled out (VARADE_OBS=OFF, separate
# build-obs-off tree; the observability A/B baseline) and runs every test
# except LABELS slow, so the tests' !obs::kEnabled branches are compiled
# and checked too.
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
    cmake --build "$1" -j "$JOBS" --target bench_fingerprint bench_expf_exhaustive
    "$1/bench/bench_fingerprint" > "$1/fingerprint.txt"
    "$1/bench/bench_expf_exhaustive" > "$1/expf.txt"
  }
  numeric_build build-numeric "" OFF
  numeric_build build-numeric-v3 "-march=x86-64-v3" ON

  echo "== diff: default vs -march=x86-64-v3, then vs bench/fingerprint.golden =="
  diff -u build-numeric/fingerprint.txt build-numeric-v3/fingerprint.txt
  diff -u bench/fingerprint.golden build-numeric/fingerprint.txt
  cat build-numeric/fingerprint.txt

  echo "== diff: nn::expf over all 2^32 floats, both builds vs bench/expf.golden =="
  diff -u bench/expf.golden build-numeric/expf.txt
  diff -u bench/expf.golden build-numeric-v3/expf.txt

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

if [[ "${1:-}" == "--obs-off" ]]; then
  BUILD_DIR="build-obs-off"
  echo "== configure (telemetry compiled out, Release) =="
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DVARADE_OBS=OFF \
    -DVARADE_BUILD_BENCH=OFF \
    -DVARADE_BUILD_EXAMPLES=OFF

  echo "== build (-j$JOBS) =="
  cmake --build "$BUILD_DIR" -j "$JOBS"

  echo "== test (every label but slow, telemetry off) =="
  ctest --test-dir "$BUILD_DIR" -LE slow --output-on-failure -j "$JOBS"

  echo "CI OK (obs-off)"
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
