// Fleet lifecycle simulation (extension): the closed loop over rounds.
//
// The one-shot pipeline (simulation.hpp) broadcasts a prior once. Real
// deployments live for years: new devices keep joining, their fitted models
// flow BACK to the cloud, the cloud's DP posterior absorbs each serviced
// upload online by a collapsed Gibbs refresh (DpmmGibbs::add_observation),
// and the prior is re-broadcast when — and
// only when — it has moved enough to justify the bytes (the symmetric-KL
// trigger from dp/prior_diagnostics.hpp). The scenario that makes this loop
// earn its keep: a NOVEL device type starts appearing mid-run. With
// feedback, the nonparametric posterior opens a new cluster and later
// devices of that type get a useful prior; without feedback they are stuck
// with the escape atom forever.
//
// Since the engine refactor this is a THIN DRIVER over the event-driven
// fleet engine (server.hpp): the bootstrap, per-device training logic, and
// the cloud's Gibbs/KL refresh policy live here as closures; sharding, the
// virtual clock, upload admission, and all per-round accounting live in
// run_fleet_engine. Reports stay bit-identical for a fixed seed at any
// num_threads / num_shards setting.
#pragma once

#include "core/edge_learner.hpp"
#include "edgesim/cloud.hpp"
#include "edgesim/faults.hpp"
#include "edgesim/server.hpp"
#include "edgesim/transfer.hpp"
#include "stats/rng.hpp"

namespace drel::edgesim {

struct LifecycleConfig {
    // Population.
    std::size_t feature_dim = 8;
    std::size_t initial_modes = 3;
    double mode_radius = 2.5;
    double within_mode_var = 0.05;
    double margin_scale = 2.0;

    // Cloud bootstrap.
    std::size_t initial_contributors = 24;
    std::size_t contributor_samples = 300;
    double dp_alpha = 1.0;
    int gibbs_sweeps = 60;
    double within_scale = 0.25;

    // Rounds.
    std::size_t rounds = 8;
    std::size_t devices_per_round = 8;
    std::size_t edge_samples = 16;
    std::size_t test_samples = 1500;

    /// Round (0-based) at which a new device type joins the population;
    /// negative = never. From that round on, half of each round's devices
    /// are of the novel type.
    int novel_mode_round = 3;

    /// Devices upload their (ridge-fitted) parameters after training and the
    /// cloud updates the prior online. false = static prior forever.
    bool feedback = true;
    int refresh_sweeps_per_upload = 3;

    /// Re-broadcast when symmetric KL(new prior, last broadcast) exceeds
    /// this; the check itself is cheap (Monte-Carlo with `kl_samples`).
    double rebroadcast_kl_threshold = 0.05;
    std::size_t kl_samples = 200;

    /// Wire options for prior broadcasts. The default (v1, full fidelity)
    /// reproduces the historical byte accounting exactly; v2 options
    /// (quantized / delta against the previous broadcast) shrink
    /// broadcast_bytes, the quantity the bandwidth SLO judges.
    EncodingOptions wire;

    core::EdgeLearnerConfig learner;

    /// Deterministic per-round, per-device fault injection (all-zero by
    /// default). Faulted devices degrade — crash, straggle, fall back to
    /// local ERM, lose uploads — and the round reports them instead of the
    /// run aborting. See edgesim/faults.hpp.
    FaultConfig faults;

    // Engine tuning (see edgesim/server.hpp). Any thread/shard setting
    // yields a bit-identical report; defaults run serially in one shard.
    std::size_t num_threads = 1;
    std::size_t num_shards = 0;        ///< 0 = one shard per thread
    double round_seconds = 60.0;
    /// Copied to EngineConfig::deadline_seconds; must equal
    /// faults.round_deadline_seconds when any fault is on.
    double deadline_seconds = 30.0;
    double uplink_seconds = 0.5;
    ServerConfig server;               ///< cloud admission control knobs

    /// Device liveness & churn (edgesim/membership.hpp). All-zero by
    /// default: no membership events, the fixed-population lifecycle.
    /// With churn, departed devices' slots are skipped (unscored, not
    /// failed) and rejoiners resume with a stale-prior DegradedReason.
    MembershipConfig membership;
};

/// perfbench's lifecycle workload is the only reader of these two names;
/// everything else reads the engine's report types directly.
using LifecycleRound = EngineRoundStats;
using LifecycleReport = EngineReport;

/// Runs the closed loop and returns the engine's report. Round 0 always
/// reads `rebroadcast == true`: the bootstrap push reached that round's
/// fleet. `rounds == 0` or `devices_per_round == 0` is a valid "nothing to
/// simulate" request and yields an empty report (no rounds, zero bytes)
/// rather than an error.
EngineReport run_lifecycle(const LifecycleConfig& config, stats::Rng& rng);

}  // namespace drel::edgesim
