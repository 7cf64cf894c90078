// Statistical goodness-of-fit suite for the membership state machine —
// the `statistical` ctest label, alongside test_sampling_stats.cpp.
//
// The churn plan draws one uniform per slot per (round, device) cell, so
// the state machine's holding times have closed forms:
//
//   * A Suspect spell under constant heartbeat-loss probability p with
//     threshold k (suspect_rounds_to_dead) lasts L rounds where
//         P(L = j)     = p^(j-1) (1 - p)   for j = 1..k-2   (recovery)
//         P(L = k - 1) = p^(k-2)           (recovery OR death at the brink)
//     and a spell that ends in death always lasts exactly k - 1 rounds of
//     SUSPECT state (the k-th consecutive miss kills within the deadline
//     handler). Conditional on reaching length k - 1, death happens with
//     probability p (one more miss) and recovery with 1 - p.
//
//   * Rejoin inter-arrival: a Dead device waits D rounds for its rejoin
//     admission, D ~ Geometric(q) on {1, 2, ...}.
//
// Every test replays the ENGINE's per-round query pattern (begin_round,
// admissions in device order, heartbeat deadline) against a MembershipTable
// with a fixed seed, so each chi-square statistic is a deterministic number
// — the assertions cannot flake. Critical values sit at df + 5*sqrt(2*df),
// the convention of the sampling suite: ~5 sigma past the chi-square mean,
// yet orders of magnitude below what a real distribution bug produces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "edgesim/membership.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::edgesim {
namespace {

using test_support::chi_square_critical;
using test_support::chi_square_statistic;

/// One engine-shaped round: promotion, admissions in device order, then the
/// heartbeat fold — the exact query pattern run_fleet_engine issues.
void drive_round(MembershipTable& table, std::size_t round, const ChurnPlan& plan) {
    table.begin_round();
    for (std::size_t j = 0; j < table.capacity(); ++j) {
        const LivenessState st = table.state(j);
        if (st == LivenessState::kUnknown) {
            if (plan.device_churn(round, j).join) table.apply_join(j);
        } else if (st == LivenessState::kDead) {
            if (plan.device_churn(round, j).rejoin) table.apply_rejoin(j);
        }
    }
    table.heartbeat_deadline(round, plan);
}

TEST(MembershipStats, SuspectSpellLengthsFollowTheTruncatedGeometric) {
    // Heartbeat losses only: every spell starts Alive -> Suspect and ends
    // in recovery or death; no leaves, no rejoins muddy the holding time.
    constexpr double kLossProb = 0.45;
    constexpr std::size_t kThreshold = 4;  // suspect_rounds_to_dead
    constexpr std::size_t kDevices = 4000;
    constexpr std::size_t kRounds = 400;

    ChurnConfig config;
    config.heartbeat_loss_prob = kLossProb;
    stats::Rng rng(20260808);
    const ChurnPlan plan(config, rng);
    MembershipTable table(kDevices, kDevices, kThreshold);

    // Track each device's current spell: rounds spent CONSECUTIVELY in
    // Suspect. A transition back to Alive closes it as a recovery; a
    // transition to Dead closes it as a death. Dead is absorbing here
    // (rejoin_prob = 0), so dead devices just stop producing spells.
    std::vector<std::size_t> spell(kDevices, 0);
    // Spell-length histogram, 1-indexed up to kThreshold - 1 (the state
    // machine kills inside the deadline handler on the k-th miss, so no
    // spell ever shows length k in the census).
    std::vector<std::uint64_t> lengths(kThreshold, 0);
    std::uint64_t recoveries = 0;
    std::uint64_t deaths = 0;
    std::uint64_t deaths_at_brink = 0;

    for (std::size_t round = 0; round < kRounds; ++round) {
        drive_round(table, round, plan);
        for (std::size_t j = 0; j < kDevices; ++j) {
            const LivenessState now = table.state(j);
            if (now == LivenessState::kSuspect) {
                ++spell[j];
            } else if (spell[j] > 0) {
                ASSERT_LT(spell[j], kThreshold);
                ++lengths[spell[j]];
                if (now == LivenessState::kAlive) {
                    ++recoveries;
                } else {
                    ASSERT_EQ(now, LivenessState::kDead);
                    ++deaths;
                    // Death requires k consecutive misses: k - 1 rounds
                    // OBSERVED as Suspect, then the killing miss.
                    EXPECT_EQ(spell[j], kThreshold - 1)
                        << "device " << j << " died off-schedule at round " << round;
                    ++deaths_at_brink;
                }
                spell[j] = 0;
            }
        }
    }
    ASSERT_GT(recoveries + deaths, 10'000u);
    EXPECT_EQ(deaths, deaths_at_brink);

    // GOF on the closed spells: P(L = j) = p^(j-1)(1-p) for j < k-1, and
    // the brink bin j = k-1 absorbs both outcomes with mass p^(k-2).
    std::vector<std::uint64_t> observed;
    std::vector<double> probabilities;
    for (std::size_t j = 1; j + 1 < kThreshold; ++j) {
        observed.push_back(lengths[j]);
        probabilities.push_back(std::pow(kLossProb, static_cast<double>(j - 1)) *
                                (1.0 - kLossProb));
    }
    observed.push_back(lengths[kThreshold - 1]);
    probabilities.push_back(std::pow(kLossProb, static_cast<double>(kThreshold - 2)));

    std::size_t df = 0;
    const std::uint64_t total = recoveries + deaths;
    const double statistic = chi_square_statistic(observed, probabilities, total, &df);
    EXPECT_LT(statistic, chi_square_critical(df)) << "chi2=" << statistic << " df=" << df;

    // Conditional on reaching the brink, the k-th miss (death) happens with
    // probability p: a 2-bin check at the same 5-sigma convention.
    std::size_t df2 = 0;
    const double brink_stat = chi_square_statistic(
        {deaths, lengths[kThreshold - 1] - deaths}, {kLossProb, 1.0 - kLossProb},
        lengths[kThreshold - 1], &df2);
    EXPECT_LT(brink_stat, chi_square_critical(df2))
        << "chi2=" << brink_stat << " df=" << df2;
}

TEST(MembershipStats, RejoinInterArrivalsAreGeometric) {
    // Every device leaves immediately (leave_prob = 1) and rejoins with
    // probability q per round: each Dead spell's length is one geometric
    // draw, and devices cycle Dead -> Joining -> Alive -> Dead forever,
    // yielding thousands of independent inter-arrival samples.
    constexpr double kRejoinProb = 0.3;
    constexpr std::size_t kDevices = 2000;
    constexpr std::size_t kRounds = 300;
    constexpr std::size_t kMaxLag = 24;  // tail bins pool in the chi-square

    ChurnConfig config;
    config.leave_prob = 1.0;
    config.rejoin_prob = kRejoinProb;
    stats::Rng rng(4242);
    const ChurnPlan plan(config, rng);
    MembershipTable table(kDevices, kDevices, 2);

    // Censuses spent Dead before the rejoin admission fires, counting the
    // death round itself: the first rejoin opportunity is the NEXT round's
    // admission pass, so a wait of 1 means the device came back at the
    // first chance — exactly the Geometric(q) support {1, 2, ...}.
    std::vector<std::size_t> waited(kDevices, 0);
    std::vector<std::uint64_t> lags(kMaxLag + 1, 0);
    std::uint64_t samples = 0;

    for (std::size_t round = 0; round < kRounds; ++round) {
        drive_round(table, round, plan);
        for (std::size_t j = 0; j < kDevices; ++j) {
            switch (table.state(j)) {
                case LivenessState::kDead:
                    ++waited[j];
                    break;
                case LivenessState::kJoining: {
                    const std::size_t lag = waited[j];
                    ++lags[std::min(lag, kMaxLag)];
                    ++samples;
                    waited[j] = 0;
                    break;
                }
                default:
                    waited[j] = 0;
                    break;
            }
        }
    }
    ASSERT_GT(samples, 50'000u);

    // P(D = d) = (1-q)^(d-1) q, with everything past kMaxLag folded into
    // the last bin (the chi-square pools small bins anyway; folding keeps
    // the probabilities summing to one exactly).
    std::vector<std::uint64_t> observed;
    std::vector<double> probabilities;
    double tail = 1.0;
    for (std::size_t d = 1; d < kMaxLag; ++d) {
        const double mass =
            std::pow(1.0 - kRejoinProb, static_cast<double>(d - 1)) * kRejoinProb;
        observed.push_back(lags[d]);
        probabilities.push_back(mass);
        tail -= mass;
    }
    observed.push_back(lags[kMaxLag]);
    probabilities.push_back(tail);

    std::size_t df = 0;
    const double statistic = chi_square_statistic(observed, probabilities, samples, &df);
    EXPECT_LT(statistic, chi_square_critical(df)) << "chi2=" << statistic << " df=" << df;
}

TEST(MembershipStats, ChurnEventCountsScaleLinearlyWithTheRate) {
    // Sanity companion to the GOF tests: over a fixed cell grid the number
    // of raised flags per slot tracks rate * cells within 5 sigma of the
    // binomial — the thresholding really is uniform.
    constexpr std::size_t kRounds = 100;
    constexpr std::size_t kDevices = 500;
    stats::Rng rng(7);
    for (const double rate : {0.1, 0.35, 0.7}) {
        const ChurnPlan plan(ChurnConfig::uniform(rate), rng);
        std::uint64_t joins = 0;
        std::uint64_t leaves = 0;
        std::uint64_t losses = 0;
        std::uint64_t rejoins = 0;
        for (std::size_t round = 0; round < kRounds; ++round) {
            for (std::size_t device = 0; device < kDevices; ++device) {
                const DeviceChurnDecision d = plan.device_churn(round, device);
                joins += d.join;
                leaves += d.leave;
                losses += d.heartbeat_lost;
                rejoins += d.rejoin;
            }
        }
        const double cells = static_cast<double>(kRounds * kDevices);
        const double sigma = std::sqrt(cells * rate * (1.0 - rate));
        for (const std::uint64_t count : {joins, leaves, losses, rejoins}) {
            EXPECT_NEAR(static_cast<double>(count), cells * rate, 5.0 * sigma)
                << "rate=" << rate;
        }
    }
}

}  // namespace
}  // namespace drel::edgesim
