#!/usr/bin/env bash
# Builds and runs the concurrency and chaos tests under ThreadSanitizer,
# AddressSanitizer and UndefinedBehaviorSanitizer (the DREL_SANITIZE CMake
# option). Part of the verify
# flow for any change to util/thread_pool, util/executor, or code running
# on the shared executor (fleet simulation, EM multi-start, collaborative),
# and for the fault-injection layer (test_faults): the chaos suite drives
# the degraded paths the healthy tests never touch, so memory/race bugs on
# those paths only surface here.
#
# All three sanitizer suites always run: a failure in one pass never
# short-circuits the next. The script exits non-zero if ANY suite failed.
#
# The undefined-behaviour pass builds and filters exactly what the other
# two do. It aborts on the first report (-fno-sanitize-recover), so a shift
# past the width of its operand, a signed overflow or a misaligned load
# fails the case that reached it instead of printing and carrying on.
#
# The SIMD dispatch and sampling-statistics suites (test_simd_dispatch,
# test_sampling_stats) ride in every sanitizer build: the dispatch layer's
# scoped-override atomics are TSan territory, and the alias-table build
# indexes worklists ASan should watch.
#
# The observability suite (test_obs: Timeseries/Health/FleetHealth) rides
# along too: histograms are observed from worker threads through relaxed
# atomics and the engine's telemetry fold runs on the driver while shards
# fan out — exactly the write/read boundary TSan must bless.
#
# The membership/churn suite (test_membership, test_membership_stats) is in
# every build as well: shards read the driver-owned participation mask while
# fanned out, Dead-slot skipping changes which SoA rows each thread
# touches, and the heartbeat fold, the rejoin overlay and the admission
# scan run per shard slice on the executor — precisely the sharing pattern
# the sanitizers must bless. The fault and churn cells keep their round
# links in per-thread memo slots (FaultPlan.CellStreamsPinned and
# ChurnPlanTest.CellStreamsPinned query them from four threads).
#
# The wire-v2 suite (test_transfer_v2) rides in every build too: the v2
# decoders parse attacker-shaped buffers with bit-packed reads — buffer
# arithmetic ASan exists to falsify.
#
# The optimizer and DP suites (test_optim, test_dp) ride in every build,
# with the golden-metrics suite (test_golden_metrics) that drives them end
# to end: the Gibbs sampler indexes flat row-major arrays of whitened
# observations, cluster sums and cluster means by raw pointer, copying the
# last cluster's rows into the emptied slot on every compaction swap;
# L-BFGS takes its gradient from the line search's last probe, and the
# fused EM-surrogate kernel leases workspace buffers per atom — buffer
# reuse and ownership hand-offs ASan exists to check. The diagnostics
# suite (test_diagnostics) holds IncrementalGibbs, the only suite that
# drives add_observation's insert path, where each arrival is whitened
# into a grown row; test_linalg holds EigenSym, the Jacobi solver that
# builds the whitening basis.
#
# The data and models suites (test_data, test_models) ride in every build:
# TaskPopulation::generate draws each sample straight into its dataset row
# and the metrics score rows through raw pointers, and the same suites'
# pins (TaskPopulation.GeneratePinned) and metric cases (Metrics.*) drive
# both. The lockstep prior-atom kernel packs four atoms per SIMD group
# with padded lanes, and L-BFGS keeps its correction ring in leased
# buffers; both already run here through test_dp and test_optim.
#
# The phase profiler suite (test_profiler) and the trace test in test_obs
# ride in every build: with tracing on, every frame that closes on a pool
# worker appends to the profiler's shared trace buffer, and the executor
# hands each runner the submitting thread's phase path — cross-thread
# writes and hand-offs the thread and address sanitizers must bless.
#
# The batched-draw and tail-selection cases ride along as well
# (test_stats: Rng.NormalsMatchSuccessiveNormalCalls,
# Descriptive.BucketedNearestRanksMatchSortedCopy): normals() fills a
# caller's buffer pair by pair and the bucketed selection scatters each
# block's members through per-bucket cursors — indexing ASan and UBSan
# should watch. The scorer pins (SimdDispatch.BatchScorer*), the
# take/give case (LinalgProperty.WorkspaceTakeReusesGivenStorage) and
# the deadline check (FleetEngine.RejectsMismatchedRoundDeadlines) match
# the suites' existing patterns.
#
# So do the per-tile scoring case (FleetEngine.ShardScoresDeferredDevicesPerTile)
# and the bucket comparison in Metrics.HistogramBucketsAreUpperInclusive: a
# shard scatters each scored tile's accuracies to SoA rows through its
# deferred-index list and reuses one tile of scratch across the slice, and
# the histogram indexes its bounds at a slot guessed by a bit scan, up to
# values near 2^64 — indexing ASan and UBSan should watch.
#
# Usage: scripts/check_sanitizers.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

failed=()
for sanitizer in thread address undefined; do
    build_dir="build-${sanitizer}san"
    echo "=== ${sanitizer} sanitizer ==="
    cmake -B "${build_dir}" -S . -DDREL_SANITIZE="${sanitizer}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
    cmake --build "${build_dir}" -j "${jobs}" \
        --target test_util test_concurrency test_faults test_engine \
                 test_membership test_membership_stats \
                 test_linalg_property test_dro_invariants \
                 test_simd_dispatch test_sampling_stats test_obs test_profiler \
                 test_transfer_v2 \
                 test_optim test_dp test_diagnostics test_linalg \
                 test_data test_models test_golden_metrics test_stats > /dev/null
    # The property/differential harness (ctest -L property) runs here too:
    # the allocation-free kernels and workspace arenas are exactly the code
    # whose buffer reuse ASan/TSan can falsify. The event-driven engine
    # suite (test_engine) rides along because its shard fan-out merges
    # per-shard SoA slices across threads — the exact pattern TSan exists
    # to check.
    if ! (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}" \
        -R 'ThreadPool|ParallelFor|ParallelReduce|Executor|Determinism|Fault|Chaos|EmDroDegradation|WorkspaceKernels|LinalgProperty|DroInvariants|FleetEngine|FleetHealth|EventQueue|StreamScheme|ScaleFleet|ShardLayout|UploadSufficientStats|SimdDispatch|SamplingStats|Timeseries|Health\.|Metrics\.|Membership|Churn|Liveness|Transfer|Lbfgs|LineSearch|GradientDescent|DpmmGibbs|DiagonalPredictive|IncrementalGibbs|EigenSym|MixturePrior|TaskPopulation|GoldenMetrics|ProfilerTest|Trace\.|NormalsMatchSuccessiveNormalCalls|BucketedNearestRanks'); then
        echo "!!! ${sanitizer} sanitizer suite FAILED"
        failed+=("${sanitizer}")
    fi
done

if [ "${#failed[@]}" -ne 0 ]; then
    echo "sanitizer checks FAILED: ${failed[*]}"
    exit 1
fi
echo "sanitizer checks passed"
