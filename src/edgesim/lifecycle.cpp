#include "edgesim/lifecycle.hpp"

#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "data/task_generator.hpp"
#include "dp/dpmm_gibbs.hpp"
#include "dp/prior_diagnostics.hpp"
#include "dp/streaming_vb.hpp"
#include "edgesim/transfer.hpp"
#include "models/erm_objective.hpp"
#include "models/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "optim/lbfgs.hpp"
#include "stats/descriptive.hpp"

namespace drel::edgesim {
namespace {

/// Ridge-ERM parameter fit (what contributors and feedback uploads use).
linalg::Vector fit_theta(const models::Dataset& data, const models::Loss& loss) {
    const double l2 = 1.0 / static_cast<double>(data.size());
    const models::ErmObjective objective(data, loss, l2);
    optim::LbfgsOptions options;
    options.stopping.max_iterations = 300;
    return optim::minimize_lbfgs(objective, linalg::zeros(data.dim()), options).x;
}

/// Streaming refit's variational truncation K.
constexpr std::size_t kStreamingTruncation = 8;

data::TaskPopulation population_with_modes(const std::vector<data::ParameterMode>& modes) {
    return data::TaskPopulation(std::vector<data::ParameterMode>(modes));
}

}  // namespace

EngineReport run_lifecycle(const LifecycleConfig& config, stats::Rng& rng) {
    config.faults.validate();
    if (config.rounds == 0 || config.devices_per_round == 0) {
        // Nothing to simulate: a valid, empty report (no rounds, no bytes)
        // rather than an error — degenerate sweeps must not abort a bench.
        return EngineReport{};
    }
    if (config.initial_contributors < 2) {
        throw std::invalid_argument("run_lifecycle: need >= 2 initial contributors");
    }
    DREL_PROFILE_SCOPE("lifecycle.run");
    static obs::Counter& rounds_count = obs::Registry::global().counter("lifecycle.rounds");
    static obs::Counter& rebroadcasts =
        obs::Registry::global().counter("lifecycle.rebroadcasts");
    static obs::Counter& uploads_count = obs::Registry::global().counter("lifecycle.uploads");
    static obs::Counter& broadcast_bytes =
        obs::Registry::global().counter("lifecycle.broadcast_bytes");
    static obs::Counter& upload_bytes =
        obs::Registry::global().counter("lifecycle.upload_bytes");

    const auto loss = models::make_loss(config.learner.loss);
    data::DataOptions options;
    options.margin_scale = config.margin_scale;

    // --- Population: initial modes now, one extra mode appears later. ---
    stats::Rng pop_rng = rng.fork(1);
    const data::TaskPopulation initial_population = data::TaskPopulation::make_synthetic(
        config.feature_dim, config.initial_modes + 1, config.mode_radius,
        config.within_mode_var, pop_rng);
    // Reserve the LAST synthesized mode as the novel type; the pre-novel
    // population exposes only the first `initial_modes`.
    std::vector<data::ParameterMode> base_modes(
        initial_population.modes().begin(),
        initial_population.modes().begin() + static_cast<long>(config.initial_modes));
    const data::ParameterMode novel_mode = initial_population.modes().back();
    const data::TaskPopulation pre_population =
        population_with_modes(base_modes);

    // --- Cloud bootstrap: contributors from the pre-novel population. ---
    stats::Rng contributor_rng = rng.fork(2);
    std::vector<linalg::Vector> thetas;
    for (std::size_t j = 0; j < config.initial_contributors; ++j) {
        stats::Rng device_rng = contributor_rng.fork(j);
        const data::TaskSpec task = pre_population.sample_task(device_rng);
        thetas.push_back(fit_theta(
            pre_population.generate(task, config.contributor_samples, device_rng, options),
            *loss));
    }
    const std::size_t d = thetas.front().size();
    dp::DpmmConfig dpmm;
    dpmm.alpha = config.dp_alpha;
    dpmm.base_mean = stats::mean_rows(thetas);
    dpmm.base_covariance = stats::covariance_rows(thetas);
    dpmm.base_covariance *= 2.0;
    dpmm.base_covariance.add_diagonal(1e-6 + 0.01 * config.within_scale);
    dpmm.within_covariance = linalg::Matrix::identity(d);
    dpmm.within_covariance *= config.within_scale;
    dpmm.num_sweeps = config.gibbs_sweeps;
    dp::DpmmGibbs sampler(thetas, dpmm);
    stats::Rng gibbs_rng = rng.fork(3);
    sampler.run(gibbs_rng);

    dp::MixturePrior broadcast_prior = sampler.extract_prior();
    // A stale-prior fault pins the device to the bootstrap prior — the
    // "missed every refresh" worst case.
    const dp::MixturePrior initial_prior = broadcast_prior;

    // Streaming refit: the bootstrap prior seeds both the anchor and the
    // pseudo-observation mass (one pseudo-observation per contributor), so
    // the first extract resembles the Gibbs broadcast. Batch mode
    // constructs nothing here and keeps the historical per-upload Gibbs
    // refresh bit for bit.
    std::optional<dp::StreamingVb> streaming;
    if (config.refit_mode == CloudRefitMode::kStreaming) {
        dp::StreamingVbConfig svb;
        svb.alpha = config.dp_alpha;
        svb.base_mean = dpmm.base_mean;
        svb.base_covariance = dpmm.base_covariance;
        svb.within_covariance = dpmm.within_covariance;
        svb.truncation = kStreamingTruncation;
        svb.prior_strength = static_cast<double>(config.initial_contributors);
        streaming.emplace(std::move(svb), broadcast_prior);
    }

    const FaultPlan fault_plan(config.faults, rng);
    // Forked, not advanced: constructing the churn plan leaves every
    // existing stream untouched, so a zero-churn config reproduces the
    // pre-membership lifecycle bit for bit.
    const ChurnPlan churn_plan(config.membership.churn, rng);

    // Broadcast wire state. The default options are exactly the historical
    // v1 encode; v2 delta frames resolve against the previous broadcast
    // (what the fleet last acked), versioned by a monotone counter.
    config.wire.validate();
    std::uint64_t wire_version = 0;
    dp::MixturePrior last_acked_prior = broadcast_prior;
    EncodingOptions bootstrap_wire = config.wire;
    bootstrap_wire.delta = false;  // nobody has a base before the first push
    bootstrap_wire.prior_version = 0;
    auto payload = encode_prior(broadcast_prior, bootstrap_wire);

    // Disjoint stream roots: all per-device draws hang off fork(4) via the
    // hierarchical device_stream scheme, all cloud-side draws off fork(5)
    // via server_stream — no tag arithmetic can make them meet (the fix for
    // the old round * 1000 + j aliasing; see shard.hpp).
    const stats::Rng device_root = rng.fork(4);
    const stats::Rng server_root = rng.fork(5);

    EngineConfig engine;
    engine.rounds = config.rounds;
    engine.devices_per_round = config.devices_per_round;
    engine.theta_dim = d;
    engine.num_shards = config.num_shards;
    engine.num_threads = config.num_threads;
    engine.round_seconds = config.round_seconds;
    engine.deadline_seconds = config.deadline_seconds;
    engine.uplink_seconds = config.uplink_seconds;
    engine.keep_thetas = true;  // the Gibbs refresh needs full-fidelity uploads
    // Historical accounting: the bootstrap broadcast is charged once, not
    // per device (the fleet does not exist yet when it is encoded).
    engine.initial_broadcast_bytes = payload.size();
    engine.initial_prior_components = broadcast_prior.num_components();
    engine.server = config.server;
    engine.membership = config.membership;

    const DeviceWork work = [&](std::size_t round, std::size_t j, stats::Rng& work_rng,
                                util::Workspace& /*ws*/) {
        DREL_PROFILE_SCOPE("lifecycle.device");
        DeviceResult result;
        const DeviceFaultDecision faults = fault_plan.device_faults(round, j);

        const bool novel_active =
            config.novel_mode_round >= 0 &&
            round >= static_cast<std::size_t>(config.novel_mode_round);
        // After the novel round, alternate novel-type devices in.
        const bool is_novel = novel_active && (j % 2 == 0);
        data::TaskSpec task;
        if (is_novel) {
            const stats::MultivariateNormal mode_dist(novel_mode.mean, novel_mode.covariance);
            task.theta_star = mode_dist.sample(work_rng);
            task.mode_index = config.initial_modes;  // the novel id
        } else {
            task = pre_population.sample_task(work_rng);
        }
        const models::Dataset train =
            pre_population.generate(task, config.edge_samples, work_rng, options);
        const models::Dataset test =
            pre_population.generate(task, config.test_samples, work_rng, options);

        double accuracy = 0.0;
        if (!faults.prior_usable()) {
            // Outage or corrupted install: local-only ERM fallback (the
            // paper's own baseline) instead of aborting.
            DREL_PROFILE_SCOPE("lifecycle.fallback");
            result.reason = DegradedReason::kFallbackLocalErm;
            accuracy = models::accuracy(models::LinearModel(fit_theta(train, *loss)), test);
        } else {
            if (faults.prior_stale) {
                result.reason = DegradedReason::kStalePrior;
                result.stale_prior = true;
            }
            const core::EdgeLearner learner(
                faults.prior_stale ? initial_prior : broadcast_prior, config.learner);
            const core::FitResult fit = learner.fit(train);
            if (fit.degraded) {
                result.reason = DegradedReason::kNonFinite;
                accuracy = models::accuracy(models::LinearModel(fit_theta(train, *loss)),
                                            test);
            } else {
                accuracy = models::accuracy(fit.model, test);
            }
        }
        result.accuracy = accuracy;
        result.scored = true;
        result.novel = is_novel;

        if (config.feedback) {
            DREL_PROFILE_SCOPE("lifecycle.upload");
            linalg::Vector theta = fit_theta(train, *loss);
            const UploadOutcome up = fault_plan.upload_outcome(round, j);
            result.attempted_upload = true;
            result.upload_attempts = up.attempts;
            result.upload_retries = up.retries;
            result.upload_delivered = up.delivered;
            result.extra_seconds = up.simulated_seconds;
            if (up.retries > 0) {
                static obs::Counter& retries =
                    obs::Registry::global().counter("upload.retries");
                retries.add(static_cast<std::uint64_t>(up.retries));
            }
            // Every attempt spends bytes on the air, delivered or not.
            upload_bytes.add(static_cast<std::uint64_t>(up.attempts) * d * sizeof(double));
            if (!up.delivered) {
                if (result.reason == DegradedReason::kNone) {
                    result.reason = DegradedReason::kUploadDropped;
                }
            } else {
                if (up.garbled) {
                    // The payload arrives, but mangled to non-finite values;
                    // the cloud-side guard must catch it.
                    theta[0] = std::numeric_limits<double>::quiet_NaN();
                }
                uploads_count.add(1);
                if (CloudNode::upload_is_usable(theta, d)) {
                    result.theta = std::move(theta);
                } else {
                    result.upload_garbled = true;
                    if (result.reason == DegradedReason::kNone) {
                        result.reason = DegradedReason::kUploadDropped;
                    }
                }
            }
        }
        return result;
    };

    // --- Cloud refresh policy, run by the engine at each round close. ---
    const RoundEndFn round_end = [&](std::size_t round, CloudServer& server) {
        RoundEndDecision decision;
        std::vector<std::pair<std::size_t, linalg::Vector>> uploads =
            server.take_serviced_thetas();
        if (config.feedback && !uploads.empty()) {
            DREL_PROFILE_SCOPE("lifecycle.cloud_refresh");
            dp::MixturePrior refreshed = broadcast_prior;
            if (streaming.has_value()) {
                // Streaming refit: score every serviced upload against the
                // frozen anchor, fold the fixed-point partials (uploads
                // arrive in canonical (round, device) order, but the merge
                // is order-exact anyway), derive the posterior from the
                // cumulative totals. No RNG: kPosteriorUpdate stays unused.
                dp::StreamingSuffStats round_stats = streaming->make_stats();
                for (const auto& [device, theta] : uploads) {
                    streaming->accumulate(theta, round_stats);
                }
                streaming->apply(round_stats);
                refreshed = streaming->extract_prior();
            } else {
                stats::Rng update_rng =
                    server_stream(server_root, round, ServerStream::kPosteriorUpdate);
                for (auto& [device, theta] : uploads) {
                    sampler.add_observation(std::move(theta), update_rng,
                                            config.refresh_sweeps_per_upload);
                }
                refreshed = sampler.extract_prior();
            }
            stats::Rng kl_rng = server_stream(server_root, round, ServerStream::kKlEstimate);
            const double drift = dp::symmetric_kl_estimate(refreshed, broadcast_prior,
                                                           config.kl_samples, kl_rng);
            if (drift > config.rebroadcast_kl_threshold) {
                broadcast_prior = refreshed;
                EncodingOptions push = config.wire;
                push.prior_version = ++wire_version;
                if (push.delta) {
                    const PriorBase base{&last_acked_prior, wire_version - 1};
                    payload = encode_prior(broadcast_prior, push, &base);
                } else {
                    payload = encode_prior(broadcast_prior, push);
                }
                last_acked_prior = broadcast_prior;
                decision.rebroadcast = true;
                // Future uploads score against the shipped posterior; a
                // batch lagging from before the push still folds exactly
                // (the totals are anchor-independent once accumulated).
                if (streaming.has_value()) streaming->refresh_anchor();
            }
        }
        decision.payload_bytes = payload.size();
        decision.prior_components = broadcast_prior.num_components();
        return decision;
    };

    EngineReport report = run_fleet_engine(engine, device_root, fault_plan, work, round_end,
                                           nullptr, &churn_plan);
    for (EngineRoundStats& stats : report.rounds) {
        rounds_count.add(1);
        broadcast_bytes.add(stats.broadcast_bytes);
        if (stats.round == 0) stats.rebroadcast = true;  // the bootstrap push
        if (stats.rebroadcast) rebroadcasts.add(1);
    }
    return report;
}

}  // namespace drel::edgesim
