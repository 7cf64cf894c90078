#include "obs/health.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace drel::health {

namespace {

// Aligned with FleetCol — a static_assert below keeps them in lockstep.
constexpr std::array<const char*, kFleetNumColumns> kFleetColumnNames = {
    "round",
    "virtual_close_ms",
    "devices",
    "healthy",
    "degraded",
    "degraded_crashed",
    "degraded_straggler",
    "degraded_fallback",
    "degraded_non_finite",
    "degraded_backpressure",
    "stale_priors",
    "uploads_attempted",
    "uploads_delivered",
    "uploads_dropped",
    "uploads_garbled",
    "uploads_rejected",
    "upload_retries",
    "queue_depth_at_close",
    "serviced_lagged",
    "broadcast_bytes",
    "upload_bytes",
    "prior_components",
    "rebroadcast",
    "latency_p50_ms",
    "latency_p99_ms",
    "latency_max_ms",
};
static_assert(kFleetColumnNames.size() == static_cast<std::size_t>(FleetCol::kNumColumns),
              "fleet column-name table out of sync with FleetCol");

// Aligned with MembershipCol — static_assert below keeps them in lockstep.
constexpr std::array<const char*, kMembershipNumColumns> kMembershipColumnNames = {
    "round",
    "capacity",
    "members",
    "alive",
    "suspect",
    "dead",
    "joining",
    "unknown",
    "participating",
    "joins",
    "rejoins",
    "leaves",
    "heartbeats_missed",
    "deaths",
    "recoveries",
    "rejoins_stale",
    "churn_events",
    "prior_version",
};
static_assert(kMembershipColumnNames.size() ==
                  static_cast<std::size_t>(MembershipCol::kNumColumns),
              "membership column-name table out of sync with MembershipCol");

}  // namespace

obs::RoundSeries make_fleet_series() {
    return obs::RoundSeries(kFleetColumnNames.data(), kFleetColumnNames.size());
}

obs::RoundSeries make_membership_series() {
    return obs::RoundSeries(kMembershipColumnNames.data(), kMembershipColumnNames.size());
}

// ---------------------------------------------------------------------- SLOs

const char* to_string(Verdict verdict) noexcept {
    switch (verdict) {
        case Verdict::kPass: return "pass";
        case Verdict::kWarn: return "warn";
        case Verdict::kFail: return "fail";
    }
    return "unknown";
}

Slo Slo::fleet_default() {
    Slo slo;
    slo.round_rules.push_back(
        {"backpressure_rejection_rate", "uploads_rejected", "uploads_attempted", 0.01, 0.05});
    slo.round_rules.push_back({"degraded_fraction", "degraded", "devices", 0.50, 0.90});
    slo.round_rules.push_back({"queue_depth_ceiling", "queue_depth_at_close", "", 1.0, 1024.0});
    slo.latency_rules.push_back({"upload_latency_p99", 0.99, 61'000, 120'000});
    slo.membership_rules.push_back({"suspect_fraction", "suspect", "members", 0.25, 0.50});
    slo.membership_rules.push_back({"mass_extinction_guard", "dead", "capacity", 0.60, 0.95});
    return slo;
}

Slo Slo::fleet_with_bandwidth(double warn_bytes_per_device, double fail_bytes_per_device) {
    Slo slo = fleet_default();
    slo.round_rules.push_back({"broadcast_bytes_per_device", "broadcast_bytes", "devices",
                               warn_bytes_per_device, fail_bytes_per_device});
    return slo;
}

obs::JsonValue SloResult::to_json() const {
    obs::JsonValue::Object out;
    out.emplace("name", name);
    out.emplace("verdict", std::string(to_string(verdict)));
    out.emplace("observed", observed);
    out.emplace("warn", warn);
    out.emplace("fail", fail);
    if (has_round && verdict != Verdict::kPass) {
        out.emplace("first_violating_round", first_violating_round);
    } else {
        out.emplace("first_violating_round", obs::JsonValue());
    }
    return obs::JsonValue(std::move(out));
}

obs::JsonValue SloReport::to_json() const {
    obs::JsonValue::Array rules_json;
    for (const SloResult& rule : rules) rules_json.emplace_back(rule.to_json());
    obs::JsonValue::Object out;
    out.emplace("verdict", std::string(to_string(verdict)));
    out.emplace("rules", std::move(rules_json));
    return obs::JsonValue(std::move(out));
}

namespace {

Verdict worse(Verdict a, Verdict b) noexcept {
    return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

SloResult evaluate_round_rule(const RatioSlo& rule, const obs::RoundSeries& series) {
    SloResult result;
    result.name = rule.name;
    result.warn = rule.warn;
    result.fail = rule.fail;
    result.has_round = true;

    const std::size_t round_col = series.column_index("round");
    const std::size_t num_col = series.column_index(rule.numerator);
    const bool absolute = rule.denominator.empty();
    const std::size_t den_col = absolute ? 0 : series.column_index(rule.denominator);

    double worst = 0.0;
    bool any = false;
    std::uint64_t first_warn_round = 0, first_fail_round = 0;
    bool warned = false, failed = false;
    for (std::size_t r = 0; r < series.num_rows(); ++r) {
        double observed;
        if (absolute) {
            observed = static_cast<double>(series.at(r, num_col));
        } else {
            const std::uint64_t den = series.at(r, den_col);
            if (den == 0) continue;  // no traffic to judge this round
            observed = static_cast<double>(series.at(r, num_col)) / static_cast<double>(den);
        }
        if (!any || observed > worst) worst = observed;
        any = true;
        if (!failed && observed >= rule.fail) {
            failed = true;
            first_fail_round = series.at(r, round_col);
        }
        if (!warned && observed >= rule.warn) {
            warned = true;
            first_warn_round = series.at(r, round_col);
        }
    }
    result.observed = any ? worst : 0.0;
    if (failed) {
        result.verdict = Verdict::kFail;
        result.first_violating_round = first_fail_round;
    } else if (warned) {
        result.verdict = Verdict::kWarn;
        result.first_violating_round = first_warn_round;
    }
    return result;
}

SloResult evaluate_latency_rule(const QuantileSlo& rule,
                                const obs::HistogramSnapshot& histogram) {
    SloResult result;
    result.name = rule.name;
    result.warn = static_cast<double>(rule.warn_ms);
    result.fail = static_cast<double>(rule.fail_ms);
    result.has_round = false;
    if (histogram.count == 0) return result;  // vacuous pass: nothing observed
    const std::uint64_t bound = histogram.quantile_bound(rule.quantile);
    if (bound == obs::kHistogramOverflowBound) {
        // Past the last bucket: unbounded above, which can never satisfy a
        // finite ceiling.
        result.observed = static_cast<double>(histogram.bounds.empty()
                                                  ? 0
                                                  : histogram.bounds.back());
        result.verdict = Verdict::kFail;
        return result;
    }
    result.observed = static_cast<double>(bound);
    if (bound >= rule.fail_ms) {
        result.verdict = Verdict::kFail;
    } else if (bound >= rule.warn_ms) {
        result.verdict = Verdict::kWarn;
    }
    return result;
}

}  // namespace

SloReport evaluate(const Slo& slo, const FleetTelemetry& telemetry) {
    SloReport report;
    for (const RatioSlo& rule : slo.round_rules) {
        report.rules.push_back(evaluate_round_rule(rule, telemetry.series));
        report.verdict = worse(report.verdict, report.rules.back().verdict);
    }
    for (const QuantileSlo& rule : slo.latency_rules) {
        report.rules.push_back(evaluate_latency_rule(rule, telemetry.upload_latency_ms));
        report.verdict = worse(report.verdict, report.rules.back().verdict);
    }
    // Membership rules only apply to runs that tracked membership; judging
    // them on an empty series would add vacuous-pass rows to every legacy
    // report (and its goldens).
    if (telemetry.membership.num_rows() > 0) {
        for (const RatioSlo& rule : slo.membership_rules) {
            report.rules.push_back(evaluate_round_rule(rule, telemetry.membership));
            report.verdict = worse(report.verdict, report.rules.back().verdict);
        }
    }
    return report;
}

// ----------------------------------------------------------------- telemetry

obs::JsonValue FleetTelemetry::to_json(const SloReport* slo,
                                       bool include_partition) const {
    obs::JsonValue::Object out;
    out.emplace("series", series.to_json());
    out.emplace("upload_latency_ms", upload_latency_ms.to_json());
    // Present only on membership-enabled runs — absence keeps every
    // pre-churn golden byte-identical.
    if (membership.num_rows() > 0) out.emplace("membership", membership.to_json());
    if (slo != nullptr) out.emplace("slo", slo->to_json());
    if (include_partition) {
        obs::JsonValue::Array shards_json;
        for (const std::uint64_t n : shard_devices) shards_json.emplace_back(n);
        obs::JsonValue::Object partition;
        partition.emplace("shard_devices", std::move(shards_json));
        partition.emplace("service_wait_ms", service_wait_ms.to_json());
        out.emplace("partition", std::move(partition));
    }
    return obs::JsonValue(std::move(out));
}

}  // namespace drel::health
