#include "workloads.hpp"

#include <cstring>
#include <exception>

#include "alloc_counter.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "trace.hpp"

namespace perfbench {
namespace edgesim = drel::edgesim;

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

struct Fnv {
    std::uint64_t h = kFnvOffset;
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * kFnvPrime;
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void reasons(const std::vector<edgesim::DegradedReason>& r) {
        bytes(r.data(), r.size() * sizeof(edgesim::DegradedReason));
    }
};

std::uint64_t count_reason(const std::vector<edgesim::DegradedReason>& reasons,
                           edgesim::DegradedReason which) {
    std::uint64_t n = 0;
    for (const edgesim::DegradedReason r : reasons) n += r == which ? 1 : 0;
    return n;
}

void check_scale(const edgesim::ScaleFleetConfig& config,
                 const edgesim::ScaleFleetReport& report, RunResult& out) {
    using drel::health::MembershipCol;
    using drel::health::idx;
    const edgesim::EngineReport& engine = report.engine;
    if (engine.rounds.size() != config.rounds) {
        out.check_failures.push_back("round count " + std::to_string(engine.rounds.size()));
    }
    const bool membership = config.membership.enabled(config.devices_per_round);
    const drel::obs::RoundSeries& members = engine.telemetry.membership;
    if (membership && members.num_rows() != engine.rounds.size()) {
        out.check_failures.push_back("membership series has " +
                                     std::to_string(members.num_rows()) + " rows");
    }
    Fnv fnv;
    for (std::size_t r = 0; r < engine.rounds.size(); ++r) {
        const edgesim::EngineRoundStats& s = engine.rounds[r];
        const std::string at = " in round " + std::to_string(r);
        if (s.uploads_attempted != s.uploads_delivered + s.uploads_dropped) {
            out.check_failures.push_back("upload funnel does not balance" + at);
        }
        if (s.device_degraded.size() != config.devices_per_round) {
            out.check_failures.push_back("device_degraded has " +
                                         std::to_string(s.device_degraded.size()) +
                                         " entries" + at);
        }
        std::uint64_t ran = config.devices_per_round;
        if (membership && r < members.num_rows()) {
            ran = members.at(r, idx(MembershipCol::kParticipating));
            const std::uint64_t census = members.at(r, idx(MembershipCol::kAlive)) +
                                         members.at(r, idx(MembershipCol::kSuspect)) +
                                         members.at(r, idx(MembershipCol::kDead)) +
                                         members.at(r, idx(MembershipCol::kJoining)) +
                                         members.at(r, idx(MembershipCol::kUnknown));
            if (census != members.at(r, idx(MembershipCol::kCapacity)) ||
                census != config.devices_per_round) {
                out.check_failures.push_back("membership census " + std::to_string(census) +
                                             " != capacity" + at);
            }
        }
        out.device_rounds += ran;
        out.failed += count_reason(s.device_degraded, edgesim::DegradedReason::kNonFinite);
        out.accuracy_sum += s.mean_accuracy * static_cast<double>(s.devices_scored);
        out.scored += s.devices_scored;

        fnv.f64(s.mean_accuracy);
        for (const std::size_t v :
             {s.prior_components, s.broadcast_bytes, s.devices_scored, s.uploads_attempted,
              s.uploads_delivered, s.crashed, s.stragglers, s.fallbacks, s.stale_priors,
              s.uploads_dropped, s.uploads_garbled, s.non_finite, s.backpressure_rejected,
              s.upload_bytes, s.batch_bytes, s.upload_retries}) {
            fnv.u64(v);
        }
        fnv.f64(s.latency_p50_seconds);
        fnv.f64(s.latency_p99_seconds);
        fnv.f64(s.latency_p999_seconds);
        fnv.reasons(s.device_degraded);
    }
    if (!(report.mode_recovery_rate >= 0.99)) {
        out.check_failures.push_back("mode_recovery_rate " +
                                     std::to_string(report.mode_recovery_rate) + " < 0.99");
    }
    fnv.u64(engine.events_processed);
    fnv.f64(engine.virtual_seconds);
    fnv.u64(engine.total_broadcast_bytes);
    fnv.f64(report.mode_recovery_rate);
    for (std::size_t r = 0; r < members.num_rows(); ++r) {
        for (std::size_t c = 0; c < members.num_columns(); ++c) fnv.u64(members.at(r, c));
    }
    out.digest = fnv.h;
}

void check_lifecycle(const edgesim::LifecycleConfig& config,
                     const edgesim::LifecycleReport& report, RunResult& out) {
    if (report.rounds.size() != config.rounds) {
        out.check_failures.push_back("round count " + std::to_string(report.rounds.size()));
    }
    Fnv fnv;
    double first_novel = -1.0;
    double last_novel = -1.0;
    for (std::size_t r = 0; r < report.rounds.size(); ++r) {
        const edgesim::LifecycleRound& s = report.rounds[r];
        const std::uint64_t non_finite =
            count_reason(s.device_degraded, edgesim::DegradedReason::kNonFinite);
        if (non_finite > 0) {
            out.check_failures.push_back(std::to_string(non_finite) +
                                         " non-finite solves in round " + std::to_string(r));
        }
        out.device_rounds += s.device_degraded.size();
        out.failed += non_finite;
        out.accuracy_sum += s.mean_accuracy * static_cast<double>(s.devices_scored);
        out.scored += s.devices_scored;
        if (s.novel_mode_accuracy >= 0.0) {
            if (first_novel < 0.0) first_novel = s.novel_mode_accuracy;
            last_novel = s.novel_mode_accuracy;
        }
        fnv.f64(s.mean_accuracy);
        fnv.f64(s.novel_mode_accuracy);
        for (const std::size_t v :
             {s.prior_components, s.broadcast_bytes, s.devices_scored, s.crashed, s.stragglers,
              s.fallbacks, s.stale_priors, s.uploads_dropped, s.uploads_garbled,
              s.backpressure_rejected, static_cast<std::size_t>(s.rebroadcast)}) {
            fnv.u64(v);
        }
        fnv.reasons(s.device_degraded);
    }
    if (!(last_novel > first_novel) || first_novel < 0.0) {
        out.check_failures.push_back("novel-type accuracy did not recover: first " +
                                     std::to_string(first_novel) + ", final " +
                                     std::to_string(last_novel));
    }
    fnv.u64(report.total_broadcast_bytes);
    fnv.u64(report.total_upload_bytes);
    out.digest = fnv.h;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
    static const std::vector<Workload> kWorkloads = {
        {"scale_100k", WorkloadKind::kScale, 2100, 4},
        {"scale_chaos_churn", WorkloadKind::kScale, 2100, 4},
        {"lifecycle_em", WorkloadKind::kLifecycle, 4200, 8},
    };
    return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
    for (const Workload& w : all_workloads()) {
        if (name == w.name) return &w;
    }
    return nullptr;
}

edgesim::ScaleFleetConfig scale_config(const Workload& workload, std::size_t threads) {
    edgesim::ScaleFleetConfig config;  // 3 rounds, dim 8, 6 modes
    config.devices_per_round = 100000;
    config.num_shards = 16;
    config.num_threads = threads;
    if (std::strcmp(workload.name, "scale_chaos_churn") == 0) {
        config.faults = edgesim::FaultConfig::uniform(0.1);
        config.membership.churn = edgesim::ChurnConfig::uniform(0.10);
        config.membership.initial_members = 90000;
        config.wire.version = edgesim::kWireV2;
        config.wire.quantized = true;
        config.wire.quantization_bits = 8;
        config.wire.delta = true;
    }
    return config;
}

edgesim::LifecycleConfig lifecycle_config(std::size_t threads) {
    edgesim::LifecycleConfig config;  // batch Gibbs refit, no faults, wire v1
    config.rounds = 8;
    config.devices_per_round = 64;
    config.novel_mode_round = 3;
    config.learner.transfer_weight = 2.0;
    config.learner.em.max_outer_iterations = 12;
    config.num_threads = threads;
    return config;
}

RunResult run_workload(const Workload& workload, std::uint64_t seed, std::size_t threads) {
    RunResult out;
    std::int64_t wall0 = 0;
    std::int64_t cpu0 = 0;
    AllocTotals alloc0;
    const auto start = [&] {
        alloc0 = alloc_totals();
        cpu0 = process_cpu_ns();
        wall0 = wall_ns();
    };
    const auto stop = [&] {
        out.wall_s = static_cast<double>(wall_ns() - wall0) * 1e-9;
        out.cpu_s = static_cast<double>(process_cpu_ns() - cpu0) * 1e-9;
        const AllocTotals alloc1 = alloc_totals();
        out.allocs = alloc1.allocs - alloc0.allocs;
        out.alloc_bytes = alloc1.bytes - alloc0.bytes;
    };
    try {
        drel::stats::Rng rng(seed);
        if (workload.kind == WorkloadKind::kScale) {
            const edgesim::ScaleFleetConfig config = scale_config(workload, threads);
            start();
            out.scale = edgesim::run_scale_fleet(config, rng);
            stop();
            check_scale(config, *out.scale, out);
        } else {
            auto& registry = drel::obs::Registry::global();
            drel::obs::Counter& uploads = registry.counter("lifecycle.uploads");
            drel::obs::Counter& rebroadcasts = registry.counter("lifecycle.rebroadcasts");
            const std::uint64_t uploads_before = uploads.total();
            const std::uint64_t rebroadcasts_before = rebroadcasts.total();
            const edgesim::LifecycleConfig config = lifecycle_config(threads);
            start();
            out.lifecycle = edgesim::run_lifecycle(config, rng);
            stop();
            out.lifecycle_uploads = uploads.total() - uploads_before;
            out.lifecycle_rebroadcasts = rebroadcasts.total() - rebroadcasts_before;
            check_lifecycle(config, *out.lifecycle, out);
        }
    } catch (const std::exception& e) {
        out.check_failures.push_back(std::string("driver threw: ") + e.what());
    }
    if (!out.check_failures.empty()) {
        // A run that threw or failed a check fails every device-round it ran.
        if (out.device_rounds == 0) {
            out.device_rounds = workload.kind == WorkloadKind::kScale
                                    ? 3 * 100000
                                    : lifecycle_config(threads).rounds *
                                          lifecycle_config(threads).devices_per_round;
        }
        out.failed = out.device_rounds;
    }
    return out;
}

}  // namespace perfbench
