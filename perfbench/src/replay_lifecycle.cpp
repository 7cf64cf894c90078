// Traced replay of run_lifecycle (lifecycle_em), plus the learner-layer
// probes the scale replays use.
//
// Mirrors the driver: population, cloud bootstrap (contributor ERM fits +
// Gibbs), then per round the engine's shard fan-out on the same executor —
// per device task sampling, data generation, EdgeLearner::fit, accuracy and
// the upload's ERM fit — followed by the serial cloud refresh (one
// DpmmGibbs::add_observation per serviced upload, extract_prior, the
// symmetric-KL rebroadcast trigger, encode on a push). Per-round mean and
// novel-type accuracy must match the real run bit for bit, which pins the
// replay to the driver's exact call pattern.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "data/task_generator.hpp"
#include "dp/batch_responsibilities.hpp"
#include "dp/dpmm_gibbs.hpp"
#include "dp/prior_diagnostics.hpp"
#include "edgesim/cloud.hpp"
#include "edgesim/shard.hpp"
#include "edgesim/transfer.hpp"
#include "models/erm_objective.hpp"
#include "models/metrics.hpp"
#include "optim/lbfgs.hpp"
#include "replay.hpp"
#include "stats/descriptive.hpp"
#include "stats/multivariate_normal.hpp"
#include "util/executor.hpp"

namespace perfbench {
namespace edgesim = drel::edgesim;
namespace linalg = drel::linalg;
namespace models = drel::models;
namespace data = drel::data;
using drel::stats::Rng;

namespace {

constexpr std::size_t kTinyRepeats = 256;  ///< repeats for sub-microsecond probes
constexpr std::size_t kDrawProbe = 512;    ///< normal draws timed per device

/// The lifecycle driver's ridge-ERM fit (contributors and uploads).
linalg::Vector fit_theta(const models::Dataset& d, const models::Loss& loss) {
    const models::ErmObjective objective(d, loss, 1.0 / static_cast<double>(d.size()));
    drel::optim::LbfgsOptions options;
    options.stopping.max_iterations = 300;
    return drel::optim::minimize_lbfgs(objective, linalg::zeros(d.dim()), options).x;
}

/// Population + bootstrapped cloud posterior, exactly as run_lifecycle
/// builds them from `rng`.
struct Cloud {
    std::unique_ptr<models::Loss> loss;
    data::DataOptions options;
    std::optional<data::TaskPopulation> pre_population;
    data::ParameterMode novel_mode;
    std::optional<drel::dp::DpmmGibbs> sampler;
    std::optional<drel::dp::MixturePrior> prior;
};

/// `tracer` null = untimed (the probes' own set-up).
Cloud bootstrap_cloud(const edgesim::LifecycleConfig& config, const Rng& rng, Tracer* tracer,
                      std::uint64_t parent) {
    Cloud cloud;
    cloud.loss = models::make_loss(config.learner.loss);
    cloud.options.margin_scale = config.margin_scale;
    Rng pop_rng = rng.fork(1);
    const data::TaskPopulation initial = data::TaskPopulation::make_synthetic(
        config.feature_dim, config.initial_modes + 1, config.mode_radius,
        config.within_mode_var, pop_rng);
    std::vector<data::ParameterMode> base_modes(
        initial.modes().begin(),
        initial.modes().begin() + static_cast<long>(config.initial_modes));
    cloud.novel_mode = initial.modes().back();
    cloud.pre_population.emplace(std::move(base_modes));

    Rng contributor_rng = rng.fork(2);
    std::vector<linalg::Vector> thetas;
    for (std::size_t j = 0; j < config.initial_contributors; ++j) {
        Rng device_rng = contributor_rng.fork(j);
        const data::TaskSpec task = cloud.pre_population->sample_task(device_rng);
        std::optional<models::Dataset> d;
        {
            ScopedSpan span(tracer, "data.task_generator", "generate", parent);
            d.emplace(cloud.pre_population->generate(task, config.contributor_samples,
                                                     device_rng, cloud.options));
            span.add_calls(config.contributor_samples);
        }
        ScopedSpan span(tracer, "models", "erm_fit", parent);
        thetas.push_back(fit_theta(*d, *cloud.loss));
        span.add_calls(1);
    }
    const std::size_t dim = thetas.front().size();
    drel::dp::DpmmConfig dpmm;
    dpmm.alpha = config.dp_alpha;
    dpmm.base_mean = drel::stats::mean_rows(thetas);
    dpmm.base_covariance = drel::stats::covariance_rows(thetas);
    dpmm.base_covariance *= 2.0;
    dpmm.base_covariance.add_diagonal(1e-6 + 0.01 * config.within_scale);
    dpmm.within_covariance = linalg::Matrix::identity(dim);
    dpmm.within_covariance *= config.within_scale;
    dpmm.num_sweeps = config.gibbs_sweeps;
    ScopedSpan span(tracer, "dp.dpmm_gibbs", "bootstrap_run", parent);
    cloud.sampler.emplace(thetas, dpmm);
    Rng gibbs_rng = rng.fork(3);
    cloud.sampler->run(gibbs_rng);
    cloud.prior.emplace(cloud.sampler->extract_prior());
    span.add_calls(1);
    return cloud;
}

struct DeviceOut {
    double accuracy = 0.0;
    bool novel = false;
    bool degraded = false;
    int outer_iterations = 0;
    linalg::Vector theta;  ///< usable upload (empty if none)
};

}  // namespace

void probe_learner_layers(std::uint64_t seed, Tracer& tracer, std::uint64_t parent) {
    // A lifecycle-shaped cloud and 16 devices derived from the seed: the
    // per-call costs of layers the scale workloads never call.
    const edgesim::LifecycleConfig config = lifecycle_config(kThreads);
    ScopedSpan root(&tracer, "", "probe.learner_layers", parent);
    const Rng rng = Rng(seed).fork(0x9E0BE);
    Cloud cloud = bootstrap_cloud(config, rng, nullptr, 0);
    const drel::core::EdgeLearner learner(*cloud.prior, config.learner);
    Rng device_rng = rng.fork(7);
    for (std::size_t i = 0; i < 16; ++i) {
        const data::TaskSpec task = cloud.pre_population->sample_task(device_rng);
        std::optional<models::Dataset> train;
        std::optional<models::Dataset> test;
        {
            ScopedSpan span(&tracer, "data.task_generator", "probe.generate", root.id());
            train.emplace(cloud.pre_population->generate(task, config.edge_samples, device_rng,
                                                         cloud.options));
            test.emplace(cloud.pre_population->generate(task, config.test_samples, device_rng,
                                                        cloud.options));
            span.add_calls(config.edge_samples + config.test_samples);
        }
        std::optional<drel::core::FitResult> fit;
        {
            ScopedSpan span(&tracer, "core.edge_learner", "probe.fit", root.id());
            fit.emplace(learner.fit(*train));
            span.add_calls(1);
        }
        {
            ScopedSpan span(&tracer, "models", "probe.accuracy", root.id());
            (void)models::accuracy(fit->model, *test);
            span.add_calls(test->size());
        }
        ScopedSpan span(&tracer, "dp.dpmm_gibbs", "probe.add_observation", root.id());
        cloud.sampler->add_observation(fit->model.weights(), device_rng,
                                       config.refresh_sweeps_per_upload);
        span.add_calls(1);
    }
    const drel::dp::MixturePrior refreshed = cloud.sampler->extract_prior();
    ScopedSpan span(&tracer, "dp.prior_diagnostics", "probe.symmetric_kl_estimate", root.id());
    for (int i = 0; i < 4; ++i) {
        (void)drel::dp::symmetric_kl_estimate(refreshed, *cloud.prior, config.kl_samples,
                                              device_rng);
    }
    span.add_calls(4);
}

ReplayCounts replay_lifecycle(std::uint64_t seed, const RunResult& reference, Tracer& tracer) {
    ReplayCounts counts;
    const edgesim::LifecycleConfig config = lifecycle_config(kThreads);
    const edgesim::LifecycleReport& real = *reference.lifecycle;
    ScopedSpan root(&tracer, "", "replay", 0);
    const Rng rng(seed);

    Cloud cloud = bootstrap_cloud(config, rng, &tracer, root.id());
    drel::dp::MixturePrior& broadcast_prior = *cloud.prior;
    const drel::dp::MixturePrior initial_prior = broadcast_prior;
    const edgesim::FaultPlan plan(config.faults, rng);
    const edgesim::ChurnPlan churn(config.membership.churn, rng);

    std::uint64_t wire_version = 0;
    drel::dp::MixturePrior last_acked = broadcast_prior;
    edgesim::EncodingOptions bootstrap_wire = config.wire;
    bootstrap_wire.delta = false;
    bootstrap_wire.prior_version = 0;
    std::vector<std::uint8_t> payload;
    {
        ScopedSpan span(&tracer, "edgesim.transfer", "encode_prior", root.id());
        payload = edgesim::encode_prior(broadcast_prior, bootstrap_wire);
        span.add_calls(1);
    }
    ++counts.encodes;

    const Rng device_root = rng.fork(4);
    const Rng server_root = rng.fork(5);
    const std::size_t d = broadcast_prior.dim();
    std::vector<edgesim::Shard> shards;
    for (const edgesim::ShardLayout& layout :
         edgesim::make_shard_layouts(config.devices_per_round, kThreads)) {
        shards.emplace_back(layout, d);
    }
    edgesim::RoundSoA scratch_soa;
    scratch_soa.resize(config.devices_per_round);
    std::vector<DeviceOut> devices(config.devices_per_round);
    std::vector<edgesim::UploadBatch> batches(shards.size());
    std::vector<double> completion(shards.size(), 0.0);

    LoggedQueue queue;
    LoggedServer server(config.server);
    queue.schedule(0.0, edgesim::EventKind::kRoundStart, 0);
    std::uint64_t round_span = 0;
    std::uint64_t pushes = 1;  // the bootstrap broadcast
    while (!queue.empty()) {
        const edgesim::Event event = queue.pop();
        const std::size_t round = event.round;
        switch (event.kind) {
            case edgesim::EventKind::kRoundStart: {
                ScopedSpan span(&tracer, "", "round", root.id());
                round_span = span.id();
                server.begin_round(round);
                {
                    // Membership is off: the engine's membership steps are
                    // skipped, and this span times exactly that.
                    ScopedSpan m(&tracer, "edgesim.membership", "driver.begin_round",
                                 round_span);
                }
                const bool novel_active =
                    config.novel_mode_round >= 0 &&
                    round >= static_cast<std::size_t>(config.novel_mode_round);
                drel::util::parallel_for(shards.size(), kThreads, [&](std::size_t s) {
                    edgesim::Shard& shard = shards[s];
                    const edgesim::ShardLayout& layout = shard.layout();
                    ScopedSpan shard_span(&tracer, "", "shard_round", round_span);
                    const std::uint64_t sid = shard_span.id();
                    std::vector<Rng> work;
                    {
                        ScopedSpan block(&tracer, "stats.rng", "device_stream.work", sid);
                        for (std::size_t j = layout.begin; j < layout.end; ++j) {
                            work.push_back(edgesim::device_stream(
                                device_root, round, j, edgesim::DeviceStream::kWork));
                        }
                        block.add_calls(layout.size());
                    }
                    {
                        // The first draw twists the engine; time it on copies so
                        // the device streams stay aligned with the real run.
                        ScopedSpan block(&tracer, "stats.rng", "probe.first_draw.work", sid);
                        for (const Rng& w : work) {
                            Rng copy = w;
                            (void)copy.uniform();
                        }
                        block.add_calls(work.size());
                    }
                    for (std::size_t j = layout.begin; j < layout.end; ++j) {
                        Rng& work_rng = work[j - layout.begin];
                        DeviceOut& out = devices[j];
                        out = DeviceOut{};
                        const edgesim::DeviceFaultDecision faults =
                            plan.device_faults(round, j);
                        out.novel = novel_active && (j % 2 == 0);
                        data::TaskSpec task;
                        std::optional<models::Dataset> train;
                        std::optional<models::Dataset> test;
                        {
                            ScopedSpan call(&tracer, "data.task_generator", "sample_task", sid);
                            if (out.novel) {
                                const drel::stats::MultivariateNormal mode_dist(
                                    cloud.novel_mode.mean, cloud.novel_mode.covariance);
                                task.theta_star = mode_dist.sample(work_rng);
                                task.mode_index = config.initial_modes;
                            } else {
                                task = cloud.pre_population->sample_task(work_rng);
                            }
                            call.add_calls(1);
                        }
                        {
                            ScopedSpan call(&tracer, "data.task_generator", "generate", sid);
                            train.emplace(cloud.pre_population->generate(
                                task, config.edge_samples, work_rng, cloud.options));
                            test.emplace(cloud.pre_population->generate(
                                task, config.test_samples, work_rng, cloud.options));
                            call.add_calls(config.edge_samples + config.test_samples);
                        }
                        {
                            ScopedSpan call(&tracer, "stats.rng", "probe.normal", sid);
                            Rng copy = work_rng;
                            for (std::size_t k = 0; k < kDrawProbe; ++k) (void)copy.normal();
                            call.add_calls(kDrawProbe);
                        }
                        const drel::core::EdgeLearner learner(
                            faults.prior_stale ? initial_prior : broadcast_prior,
                            config.learner);
                        std::optional<drel::core::FitResult> fit;
                        {
                            ScopedSpan call(&tracer, "core.edge_learner", "fit", sid);
                            fit.emplace(learner.fit(*train));
                            call.add_calls(1);
                        }
                        out.outer_iterations = fit->trace.outer_iterations;
                        {
                            ScopedSpan call(&tracer, "models", "accuracy", sid);
                            if (fit->degraded) {
                                out.degraded = true;
                                out.accuracy = models::accuracy(
                                    models::LinearModel(fit_theta(*train, *cloud.loss)), *test);
                            } else {
                                out.accuracy = models::accuracy(fit->model, *test);
                            }
                            call.add_calls(test->size());
                        }
                        ScopedSpan call(&tracer, "models", "erm_fit", sid);
                        linalg::Vector theta = fit_theta(*train, *cloud.loss);
                        const edgesim::UploadOutcome up = plan.upload_outcome(round, j);
                        if (up.delivered && !up.garbled &&
                            edgesim::CloudNode::upload_is_usable(theta, d)) {
                            out.theta = std::move(theta);
                        }
                        call.add_calls(1);
                    }
                    double slowest = 0.0;
                    {
                        ScopedSpan block(&tracer, "stats.rng", "device_stream.latency", sid);
                        for (std::size_t j = layout.begin; j < layout.end; ++j) {
                            Rng lat = edgesim::device_stream(device_root, round, j,
                                                             edgesim::DeviceStream::kLatency);
                            const double healthy =
                                config.deadline_seconds * (0.05 + 0.20 * lat.uniform());
                            slowest = std::max(slowest,
                                               std::min(healthy, config.deadline_seconds));
                        }
                        block.add_calls(layout.size());
                    }
                    completion[s] = slowest;
                    edgesim::UploadBatch& batch = batches[s];
                    batch = edgesim::UploadBatch{};
                    batch.round = static_cast<std::uint32_t>(round);
                    batch.shard = static_cast<std::uint32_t>(s);
                    {
                        ScopedSpan block(&tracer, "edgesim.shard", "batch_add", sid);
                        for (std::size_t j = layout.begin; j < layout.end; ++j) {
                            if (devices[j].theta.empty()) continue;
                            batch.stats.add(devices[j].theta);
                            batch.devices.push_back(j);
                            batch.thetas.emplace_back(j, devices[j].theta);
                        }
                        block.add_calls(batch.devices.size());
                    }
                    static const edgesim::DeviceWork kNoWork =
                        [](std::size_t, std::size_t, Rng&, drel::util::Workspace&) {
                            return edgesim::DeviceResult{};
                        };
                    {
                        ScopedSpan block(&tracer, "edgesim.shard", "run_round.noop", sid);
                        (void)shard.run_round(round, device_root, plan, kNoWork, scratch_soa,
                                              config.deadline_seconds, /*keep_thetas=*/true);
                        block.add_calls(layout.size());
                    }
                    time_run_round_streams(device_root, round, layout, nullptr, tracer, sid);
                });
                double accuracy_sum = 0.0;
                double novel_sum = 0.0;
                std::size_t novel_scored = 0;
                for (const DeviceOut& out : devices) {
                    accuracy_sum += out.accuracy;
                    if (out.novel) {
                        novel_sum += out.accuracy;
                        ++novel_scored;
                    }
                    ++counts.fits;
                    counts.non_finite_fits += out.degraded ? 1 : 0;
                    counts.outer_iterations += static_cast<std::uint64_t>(out.outer_iterations);
                }
                const edgesim::LifecycleRound& r = real.rounds.at(round);
                const double mean = accuracy_sum / static_cast<double>(devices.size());
                const double novel =
                    novel_scored > 0 ? novel_sum / static_cast<double>(novel_scored) : -1.0;
                if (mean != r.mean_accuracy || novel != r.novel_mode_accuracy) {
                    counts.mismatches.push_back("round " + std::to_string(round) +
                                                " accuracy: replay " + std::to_string(mean) +
                                                " vs run " + std::to_string(r.mean_accuracy));
                }
                counts.device_rounds += devices.size();
                counts.streams += 2 * devices.size();
                for (std::size_t s = 0; s < batches.size(); ++s) {
                    if (batches[s].stats.count == 0) continue;
                    queue.schedule(event.time + completion[s] + config.uplink_seconds,
                                   edgesim::EventKind::kUploadArrival, round, s);
                }
                queue.schedule(event.time + config.round_seconds, edgesim::EventKind::kRoundEnd,
                               round);
                break;
            }
            case edgesim::EventKind::kUploadArrival: {
                (void)server.offer(std::move(batches[event.shard]), event.time);
                break;
            }
            case edgesim::EventKind::kRoundEnd: {
                server.drain_until(event.time);
                std::vector<std::pair<std::size_t, linalg::Vector>> uploads =
                    server.take_serviced_thetas();
                bool rebroadcast = false;
                if (config.feedback && !uploads.empty()) {
                    Rng update_rng = edgesim::server_stream(
                        server_root, round, edgesim::ServerStream::kPosteriorUpdate);
                    for (auto& [device, theta] : uploads) {
                        ScopedSpan span(&tracer, "dp.dpmm_gibbs", "add_observation",
                                        round_span);
                        cloud.sampler->add_observation(std::move(theta), update_rng,
                                                       config.refresh_sweeps_per_upload);
                        span.add_calls(1);
                    }
                    std::optional<drel::dp::MixturePrior> refreshed;
                    {
                        ScopedSpan span(&tracer, "dp.dpmm_gibbs", "extract_prior", round_span);
                        refreshed.emplace(cloud.sampler->extract_prior());
                        span.add_calls(1);
                    }
                    Rng kl_rng = edgesim::server_stream(server_root, round,
                                                        edgesim::ServerStream::kKlEstimate);
                    double drift = 0.0;
                    {
                        ScopedSpan span(&tracer, "dp.prior_diagnostics",
                                        "symmetric_kl_estimate", round_span);
                        drift = drel::dp::symmetric_kl_estimate(*refreshed, broadcast_prior,
                                                                config.kl_samples, kl_rng);
                        span.add_calls(1);
                    }
                    if (drift > config.rebroadcast_kl_threshold) {
                        broadcast_prior = *refreshed;
                        edgesim::EncodingOptions push = config.wire;
                        push.prior_version = ++wire_version;
                        ScopedSpan span(&tracer, "edgesim.transfer", "encode_prior",
                                        round_span);
                        const edgesim::PriorBase base{&last_acked, wire_version - 1};
                        payload = edgesim::encode_prior(broadcast_prior, push,
                                                        push.delta ? &base : nullptr);
                        span.add_calls(1);
                        ++counts.encodes;
                        last_acked = broadcast_prior;
                        rebroadcast = true;
                    }
                }
                const bool has_next = round + 1 < config.rounds;
                // The report folds round 0's push into its bootstrap flag.
                pushes += round > 0 && rebroadcast && has_next ? 1 : 0;
                const bool pushed = rebroadcast && has_next;
                if (round > 0 && pushed != real.rounds.at(round).rebroadcast) {
                    counts.mismatches.push_back("round " + std::to_string(round) +
                                                " rebroadcast differs");
                }
                if (has_next) {
                    if (broadcast_prior.num_components() !=
                        real.rounds.at(round + 1).prior_components) {
                        counts.mismatches.push_back("round " + std::to_string(round + 1) +
                                                    " prior components differ");
                    }
                    queue.schedule(event.time, edgesim::EventKind::kRoundStart, round + 1);
                }
                ++counts.rounds;
                break;
            }
            default:
                counts.mismatches.push_back("unexpected membership event");
                break;
        }
    }
    counts.events = queue.total_popped();
    counts.offers = server.offers();
    counts.gibbs_observations_at_close = cloud.sampler->num_observations();
    if (counts.rounds != real.rounds.size()) counts.mismatches.push_back("round count");
    if (reference.lifecycle_uploads != counts.device_rounds) {
        counts.mismatches.push_back("uploads: replay " + std::to_string(counts.device_rounds) +
                                    " vs run " + std::to_string(reference.lifecycle_uploads));
    }
    if (reference.lifecycle_rebroadcasts != pushes) {
        counts.mismatches.push_back("broadcasts: replay " + std::to_string(pushes) +
                                    " vs run " +
                                    std::to_string(reference.lifecycle_rebroadcasts));
    }

    queue.time_calls(tracer, root.id());
    server.time_calls(tracer, root.id());
    // Sub-microsecond calls, re-issued over the workload's cells in blocks.
    {
        ScopedSpan span(&tracer, "edgesim.faults", "probe.device_faults", root.id());
        for (std::size_t rep = 0; rep < kTinyRepeats; ++rep) {
            for (std::size_t r = 0; r < config.rounds; ++r) {
                for (std::size_t j = 0; j < config.devices_per_round; ++j) {
                    (void)plan.device_faults(r, j);
                    (void)plan.upload_outcome(r, j);
                }
            }
        }
        span.add_calls(2 * kTinyRepeats * config.rounds * config.devices_per_round);
    }
    {
        ScopedSpan span(&tracer, "edgesim.membership", "probe.device_churn", root.id());
        for (std::size_t rep = 0; rep < kTinyRepeats; ++rep) {
            for (std::size_t r = 0; r < config.rounds; ++r) {
                for (std::size_t j = 0; j < config.devices_per_round; ++j) {
                    (void)churn.device_churn(r, j);
                }
            }
        }
        span.add_calls(kTinyRepeats * config.rounds * config.devices_per_round);
    }
    {
        // Batched scoring is not on the lifecycle path: score the final
        // round's uploads against the final prior.
        const drel::dp::BatchResponsibilities scorer(broadcast_prior);
        std::vector<double> thetas;
        for (const DeviceOut& out : devices) {
            const linalg::Vector w = out.theta.empty() ? linalg::zeros(d) : out.theta;
            thetas.insert(thetas.end(), w.begin(), w.end());
        }
        const std::vector<std::size_t> tags(devices.size(), 0);
        std::vector<double> accuracy(devices.size(), 0.0);
        drel::util::Workspace ws;
        ScopedSpan span(&tracer, "dp.batch_responsibilities", "probe.score_match_into",
                        root.id());
        for (std::size_t rep = 0; rep < kTinyRepeats; ++rep) {
            scorer.score_match_into(thetas.data(), devices.size(), tags.data(), accuracy.data(),
                                    ws);
        }
        span.add_calls(kTinyRepeats * devices.size());
    }
    {
        // Devices never decode today; time what a decode of the last push
        // would cost.
        ScopedSpan span(&tracer, "edgesim.transfer", "probe.decode_prior", root.id());
        const edgesim::PriorBase base{&last_acked, wire_version};
        for (std::size_t rep = 0; rep < kTinyRepeats; ++rep) {
            (void)edgesim::decode_prior(payload, config.wire.delta ? &base : nullptr);
        }
        span.add_calls(kTinyRepeats);
    }
    return counts;
}

}  // namespace perfbench
