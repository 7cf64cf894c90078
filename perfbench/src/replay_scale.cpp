// Traced replay of run_scale_fleet (scale_100k, scale_chaos_churn).
//
// Mirrors the driver's prologue (oracle prior, wire frames, fault and churn
// plans) and the engine's event loop round by round. Each shard's slice is
// walked in blocks of devices, one layer call kind per block span, on the
// same 4-thread executor the engine uses:
//   device_faults (shard) -> kWork stream -> device_faults (work) -> first
//   draw -> normal draws -> upload_outcome -> kLatency stream + draws ->
//   UploadStats::add
// then the shard's batched scoring, then Shard::run_round with a no-op
// DeviceWork and, on their own, the streams that run_round derives (the
// difference, less the shard-side fault query, is the shard's fold cost).
// Scheduler and server calls are logged during the loop and re-issued
// afterwards in one block span each, because a single call is too short to
// time on its own.
#include <algorithm>
#include <cmath>

#include "dp/batch_responsibilities.hpp"
#include "dp/mixture_prior.hpp"
#include "edgesim/membership.hpp"
#include "edgesim/scheduler.hpp"
#include "edgesim/server.hpp"
#include "edgesim/shard.hpp"
#include "edgesim/transfer.hpp"
#include "obs/health.hpp"
#include "replay.hpp"
#include "stats/multivariate_normal.hpp"
#include "util/executor.hpp"

namespace perfbench {
namespace edgesim = drel::edgesim;
namespace linalg = drel::linalg;
using drel::stats::Rng;

namespace {

constexpr std::size_t kBlock = 256;
constexpr std::size_t kCodecRepeats = 64;

/// Per-shard, per-round replay output.
struct ShardOut {
    edgesim::UploadBatch batch;
    double completion_seconds = 0.0;
    std::uint64_t ran = 0, scored = 0, matches = 0, attempted = 0, delivered = 0;
    std::uint64_t dropped = 0, crashed = 0, stragglers = 0, fault_cells = 0;
};

struct Fleet {
    edgesim::ScaleFleetConfig config;
    std::size_t dim = 0;
    double within_sd = 0.0;
    std::vector<linalg::Vector> means;
    Rng device_root{0};
    edgesim::FaultPlan plan;
    edgesim::ChurnPlan churn;
};

void replay_shard(const Fleet& fleet, const drel::dp::BatchResponsibilities& scorer,
                  edgesim::Shard& shard, std::size_t round, const std::uint8_t* participating,
                  edgesim::RoundSoA& scratch_soa, Tracer& tracer, std::uint64_t parent,
                  ShardOut& out) {
    const edgesim::FaultPlan& plan = fleet.plan;
    const std::size_t dim = fleet.dim;
    const double deadline = fleet.config.deadline_seconds;
    const bool plan_active = plan.active();
    ScopedSpan shard_span(&tracer, "", "shard_round", parent);
    const std::uint64_t sid = shard_span.id();
    out.batch.round = static_cast<std::uint32_t>(round);
    out.batch.shard = static_cast<std::uint32_t>(shard.layout().index);

    std::vector<std::size_t> ids;
    std::vector<Rng> work;
    std::vector<edgesim::DeviceFaultDecision> dec;
    std::vector<std::size_t> modes;
    std::vector<edgesim::UploadOutcome> ups;
    std::vector<double> thetas;
    std::vector<std::size_t> tags;
    std::vector<double> deferred;
    linalg::Vector theta(dim, 0.0);
    ids.reserve(kBlock);
    work.reserve(kBlock);

    const edgesim::ShardLayout& layout = shard.layout();
    for (std::size_t begin = layout.begin; begin < layout.end; begin += kBlock) {
        const std::size_t end = std::min(layout.end, begin + kBlock);
        ids.clear();
        for (std::size_t j = begin; j < end; ++j) {
            if (participating == nullptr || participating[j] != 0) ids.push_back(j);
        }
        const std::size_t n = ids.size();
        if (n == 0) continue;
        dec.assign(n, {});
        modes.assign(n, 0);
        ups.assign(n, {});
        thetas.assign(n * dim, 0.0);
        const auto is_worker = [&](std::size_t i) {
            return !dec[i].crash && !dec[i].straggler;
        };
        {
            ScopedSpan span(&tracer, "edgesim.faults", "device_faults.shard", sid);
            for (std::size_t i = 0; i < n; ++i) dec[i] = plan.device_faults(round, ids[i]);
            span.add_calls(n);
        }
        out.fault_cells += plan_active ? n : 0;
        {
            ScopedSpan span(&tracer, "stats.rng", "device_stream.work", sid);
            work.clear();
            for (std::size_t i = 0; i < n; ++i) {
                work.push_back(edgesim::device_stream(fleet.device_root, round, ids[i],
                                                      edgesim::DeviceStream::kWork));
            }
            span.add_calls(n);
        }
        std::uint64_t survivors = 0;
        {
            // The scale DeviceWork queries the plan again for its own cell.
            ScopedSpan span(&tracer, "edgesim.faults", "device_faults.work", sid);
            for (std::size_t i = 0; i < n; ++i) {
                if (dec[i].crash) continue;
                (void)plan.device_faults(round, ids[i]);
                ++survivors;
            }
            span.add_calls(survivors);
        }
        out.fault_cells += plan_active ? survivors : 0;
        std::uint64_t workers = 0;
        {
            ScopedSpan span(&tracer, "stats.rng", "first_draw.work", sid);
            for (std::size_t i = 0; i < n; ++i) {
                if (!is_worker(i)) continue;
                modes[i] = work[i].uniform_index(fleet.means.size());
                ++workers;
            }
            span.add_calls(workers);
        }
        {
            ScopedSpan span(&tracer, "stats.rng", "normal", sid);
            for (std::size_t i = 0; i < n; ++i) {
                if (!is_worker(i)) continue;
                const linalg::Vector& mean = fleet.means[modes[i]];
                for (std::size_t d = 0; d < dim; ++d) {
                    thetas[i * dim + d] = mean[d] + fleet.within_sd * work[i].normal();
                }
            }
            span.add_calls(workers * dim);
        }
        {
            ScopedSpan span(&tracer, "edgesim.faults", "upload_outcome", sid);
            for (std::size_t i = 0; i < n; ++i) {
                if (is_worker(i)) ups[i] = plan.upload_outcome(round, ids[i]);
            }
            span.add_calls(workers);
        }
        out.fault_cells += plan_active ? workers : 0;
        {
            ScopedSpan span(&tracer, "stats.rng", "device_stream.latency", sid);
            for (std::size_t i = 0; i < n; ++i) {
                Rng lat = edgesim::device_stream(fleet.device_root, round, ids[i],
                                                 edgesim::DeviceStream::kLatency);
                const double extra = is_worker(i) ? ups[i].simulated_seconds : 0.0;
                const double healthy = deadline * (0.05 + 0.20 * lat.uniform()) + extra;
                if (dec[i].straggler && !dec[i].crash) {
                    (void)lat.uniform();
                } else if (!dec[i].crash) {
                    out.completion_seconds =
                        std::max(out.completion_seconds, std::min(healthy, deadline));
                }
            }
            span.add_calls(n);
        }
        {
            ScopedSpan span(&tracer, "edgesim.shard", "batch_add", sid);
            std::uint64_t adds = 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (!is_worker(i) || !ups[i].delivered || ups[i].garbled) continue;
                theta.assign(thetas.begin() + static_cast<long>(i * dim),
                             thetas.begin() + static_cast<long>((i + 1) * dim));
                out.batch.stats.add(theta);
                out.batch.devices.push_back(ids[i]);
                ++adds;
            }
            span.add_calls(adds);
        }
        for (std::size_t i = 0; i < n; ++i) {
            ++out.ran;
            if (dec[i].crash) {
                ++out.crashed;
                continue;
            }
            if (dec[i].straggler) {
                ++out.stragglers;
                continue;
            }
            ++out.scored;
            ++out.attempted;
            out.delivered += ups[i].delivered ? 1 : 0;
            out.dropped += ups[i].delivered ? 0 : 1;
            tags.push_back(modes[i]);
            deferred.insert(deferred.end(), thetas.begin() + static_cast<long>(i * dim),
                            thetas.begin() + static_cast<long>((i + 1) * dim));
        }
    }
    if (!tags.empty()) {
        std::vector<double> accuracy(tags.size(), 0.0);
        ScopedSpan span(&tracer, "dp.batch_responsibilities", "score_match_into", sid);
        scorer.score_match_into(deferred.data(), tags.size(), tags.data(), accuracy.data(),
                                shard.workspace());
        span.add_calls(tags.size());
        for (const double a : accuracy) out.matches += a > 0.5 ? 1 : 0;
    }
    {
        static const edgesim::DeviceWork kNoWork =
            [](std::size_t, std::size_t, Rng&, drel::util::Workspace&) {
                return edgesim::DeviceResult{};
            };
        ScopedSpan span(&tracer, "edgesim.shard", "run_round.noop", sid);
        (void)shard.run_round(round, fleet.device_root, plan, kNoWork, scratch_soa, deadline,
                              /*keep_thetas=*/false, nullptr, participating);
        span.add_calls(out.ran);
    }
    time_run_round_streams(fleet.device_root, round, layout, participating, tracer, sid);
}

/// Times `repeats` encodes (and, as a probe, decodes) of one frame.
void time_codec(const drel::dp::MixturePrior& prior, const edgesim::EncodingOptions& options,
                const edgesim::PriorBase* base, bool workload_encodes, Tracer& tracer,
                std::uint64_t parent) {
    std::vector<std::uint8_t> frame;
    {
        ScopedSpan span(&tracer, "edgesim.transfer",
                        workload_encodes ? "encode_prior" : "probe.encode_prior", parent);
        for (std::size_t i = 0; i < kCodecRepeats; ++i) {
            frame = edgesim::encode_prior(prior, options, options.delta ? base : nullptr);
        }
        span.add_calls(kCodecRepeats);
    }
    ScopedSpan span(&tracer, "edgesim.transfer", "probe.decode_prior", parent);
    for (std::size_t i = 0; i < kCodecRepeats; ++i) {
        (void)edgesim::decode_prior(frame, options.delta ? base : nullptr);
    }
    span.add_calls(kCodecRepeats);
}

}  // namespace

ReplayCounts replay_scale(const Workload& workload, std::uint64_t seed,
                          const RunResult& reference, Tracer& tracer) {
    using drel::health::MembershipCol;
    using drel::health::idx;
    ReplayCounts counts;
    ScopedSpan root(&tracer, "", "replay", 0);

    Fleet fleet;
    fleet.config = scale_config(workload, kThreads);
    const edgesim::ScaleFleetConfig& config = fleet.config;
    const Rng rng(seed);
    const std::size_t num_modes = std::max<std::size_t>(1, config.num_modes);
    fleet.dim = std::max<std::size_t>(1, config.feature_dim);
    fleet.within_sd = std::sqrt(std::max(0.0, config.within_mode_var));

    // Driver prologue: the oracle prior and its broadcast frames.
    Rng mode_rng = rng.fork(11);
    std::vector<drel::stats::MultivariateNormal> atoms;
    for (std::size_t k = 0; k < num_modes; ++k) {
        linalg::Vector mean = mode_rng.standard_normal_vector(fleet.dim);
        for (double& m : mean) m *= config.mode_radius;
        atoms.push_back(
            drel::stats::MultivariateNormal::isotropic(mean, config.within_mode_var));
        fleet.means.push_back(std::move(mean));
    }
    const drel::dp::MixturePrior prior(linalg::Vector(num_modes, 1.0), std::move(atoms));
    std::size_t payload_bytes = edgesim::encoded_size(num_modes, fleet.dim, {});
    std::size_t rebroadcast_bytes = payload_bytes;
    const bool v2 = config.wire.version >= edgesim::kWireV2;
    const edgesim::PriorBase base{&prior, 0};
    if (v2) {
        edgesim::EncodingOptions bootstrap = config.wire;
        bootstrap.delta = false;
        bootstrap.prior_version = 0;
        edgesim::EncodingOptions push = config.wire;
        push.prior_version = 1;
        payload_bytes = edgesim::encode_prior(prior, bootstrap).size();
        rebroadcast_bytes =
            edgesim::encode_prior(prior, push, push.delta ? &base : nullptr).size();
        time_codec(prior, bootstrap, nullptr, true, tracer, root.id());
        time_codec(prior, push, &base, true, tracer, root.id());
        counts.encodes = 2;
    } else {
        // v1 charges encoded_size without encoding: probe the frame's cost.
        time_codec(prior, config.wire, nullptr, false, tracer, root.id());
    }

    fleet.device_root = rng.fork(4);
    fleet.plan = edgesim::FaultPlan(config.faults, rng);
    fleet.churn = edgesim::ChurnPlan(config.membership.churn, rng);
    const drel::dp::BatchResponsibilities scorer(prior);

    const std::size_t devices = config.devices_per_round;
    const bool membership_on = fleet.churn.active() || config.membership.enabled(devices);
    edgesim::MembershipTable table;
    if (membership_on) {
        table = edgesim::MembershipTable(devices,
                                         config.membership.effective_initial_members(devices),
                                         config.membership.suspect_rounds_to_dead);
    }
    std::vector<edgesim::Shard> shards;
    for (const edgesim::ShardLayout& layout :
         edgesim::make_shard_layouts(devices, config.num_shards)) {
        shards.emplace_back(layout, fleet.dim);
    }
    edgesim::RoundSoA scratch_soa;
    scratch_soa.resize(devices);
    std::vector<ShardOut> outs(shards.size());

    LoggedQueue queue;
    LoggedServer server(config.server);

    std::uint64_t broadcast_bytes =
        payload_bytes * config.membership.effective_initial_members(devices);
    std::uint64_t round_span = 0;
    queue.schedule(0.0, edgesim::EventKind::kRoundStart, 0);
    while (!queue.empty()) {
        const edgesim::Event event = queue.pop();
        const std::size_t round = event.round;
        switch (event.kind) {
            case edgesim::EventKind::kRoundStart: {
                ScopedSpan span(&tracer, "", "round", root.id());
                round_span = span.id();
                server.begin_round(round);
                {
                    ScopedSpan m(&tracer, "edgesim.membership", "driver.begin_round",
                                 round_span);
                    if (membership_on) table.begin_round();
                }
                const std::uint8_t* participating =
                    membership_on ? table.participation().data() : nullptr;
                std::fill(outs.begin(), outs.end(), ShardOut{});
                drel::util::parallel_for(shards.size(), kThreads, [&](std::size_t s) {
                    replay_shard(fleet, scorer, shards[s], round, participating, scratch_soa,
                                 tracer, round_span, outs[s]);
                });
                {
                    ScopedSpan m(&tracer, "edgesim.membership", "driver.overlay", round_span);
                    if (membership_on) {
                        std::size_t stale = 0;
                        for (std::size_t j = 0; j < devices; ++j) {
                            stale += table.resumed_stale(j) ? 1 : 0;
                        }
                        m.add_calls(stale);
                    }
                }
                for (std::size_t s = 0; s < outs.size(); ++s) {
                    if (outs[s].batch.stats.count == 0) continue;
                    queue.schedule(
                        event.time + outs[s].completion_seconds + config.uplink_seconds,
                        edgesim::EventKind::kUploadArrival, round, s);
                }
                if (membership_on) {
                    std::vector<std::pair<std::size_t, edgesim::EventKind>> admissions;
                    {
                        ScopedSpan m(&tracer, "edgesim.membership", "device_churn", round_span);
                        std::uint64_t cells = 0;
                        for (std::size_t j = 0; j < devices; ++j) {
                            const edgesim::LivenessState st = table.state(j);
                            if (st == edgesim::LivenessState::kUnknown) {
                                ++cells;
                                if (fleet.churn.device_churn(round, j).join) {
                                    admissions.emplace_back(j, edgesim::EventKind::kDeviceJoin);
                                }
                            } else if (st == edgesim::LivenessState::kDead) {
                                ++cells;
                                if (fleet.churn.device_churn(round, j).rejoin) {
                                    admissions.emplace_back(j,
                                                            edgesim::EventKind::kDeviceRejoin);
                                }
                            }
                        }
                        m.add_calls(cells);
                        counts.churn_cells += cells;
                    }
                    for (const auto& [j, kind] : admissions) {
                        queue.schedule(event.time + config.membership.join_seconds, kind, round,
                                       0, j);
                    }
                    queue.schedule(event.time + config.membership.heartbeat_seconds,
                             edgesim::EventKind::kHeartbeatDeadline, round);
                }
                queue.schedule(event.time + config.round_seconds, edgesim::EventKind::kRoundEnd,
                               round);
                break;
            }
            case edgesim::EventKind::kHeartbeatDeadline: {
                const edgesim::MembershipCounts before = table.counts();
                ScopedSpan m(&tracer, "edgesim.membership", "heartbeat_deadline", round_span);
                table.heartbeat_deadline(round, fleet.churn);
                m.add_calls(before.alive + before.suspect);
                counts.churn_cells += before.alive + before.suspect;
                break;
            }
            case edgesim::EventKind::kDeviceJoin: table.apply_join(event.device); break;
            case edgesim::EventKind::kDeviceRejoin: table.apply_rejoin(event.device); break;
            case edgesim::EventKind::kUploadArrival: {
                (void)server.offer(std::move(outs[event.shard].batch), event.time);
                break;
            }
            case edgesim::EventKind::kRoundEnd: {
                server.drain_until(event.time);
                // Reconcile the round against the real run's report.
                const edgesim::EngineRoundStats& real =
                    reference.scale->engine.rounds.at(round);
                ShardOut sum;
                for (const ShardOut& o : outs) {
                    sum.ran += o.ran;
                    sum.scored += o.scored;
                    sum.matches += o.matches;
                    sum.attempted += o.attempted;
                    sum.delivered += o.delivered;
                    sum.dropped += o.dropped;
                    sum.crashed += o.crashed;
                    sum.stragglers += o.stragglers;
                    counts.fault_cells += o.fault_cells;
                }
                const std::string at = " (round " + std::to_string(round) + ")";
                const auto expect = [&](const char* what, std::uint64_t replayed,
                                        std::uint64_t real_value) {
                    if (replayed != real_value) {
                        counts.mismatches.push_back(std::string(what) + ": replay " +
                                                    std::to_string(replayed) + " vs run " +
                                                    std::to_string(real_value) + at);
                    }
                };
                expect("devices_scored", sum.scored, real.devices_scored);
                expect("uploads_attempted", sum.attempted, real.uploads_attempted);
                expect("uploads_delivered", sum.delivered, real.uploads_delivered);
                expect("uploads_dropped", sum.dropped, real.uploads_dropped);
                expect("crashed", sum.crashed, real.crashed);
                expect("stragglers", sum.stragglers, real.stragglers);
                expect("mode matches", sum.matches,
                       static_cast<std::uint64_t>(std::llround(
                           real.mean_accuracy * static_cast<double>(real.devices_scored))));
                counts.device_rounds += sum.ran;
                counts.streams += 2 * sum.ran;

                const bool has_next = round + 1 < config.rounds;
                const bool rebroadcast = has_next && config.rebroadcast_every > 0 &&
                                         (round + 1) % config.rebroadcast_every == 0;
                if (rebroadcast) {
                    broadcast_bytes +=
                        rebroadcast_bytes * (membership_on ? table.alive_count() : devices);
                    ScopedSpan m(&tracer, "edgesim.membership", "driver.record_broadcast",
                                 round_span);
                    if (membership_on) table.record_broadcast();
                }
                if (membership_on) {
                    const edgesim::MembershipCounts mc = table.counts();
                    counts.membership_events += mc.churn_events();
                    const drel::obs::RoundSeries& series =
                        reference.scale->engine.telemetry.membership;
                    if (round < series.num_rows()) {
                        expect("churn events", mc.churn_events(),
                               series.at(round, idx(MembershipCol::kChurnEvents)));
                        expect("participating", sum.ran,
                               series.at(round, idx(MembershipCol::kParticipating)));
                    }
                }
                if (has_next) {
                    queue.schedule(event.time, edgesim::EventKind::kRoundStart, round + 1);
                }
                ++counts.rounds;
                break;
            }
        }
    }
    counts.events = queue.total_popped();
    counts.offers = server.offers();
    const edgesim::EngineReport& real = reference.scale->engine;
    if (counts.events != real.events_processed) {
        counts.mismatches.push_back("events: replay " + std::to_string(counts.events) +
                                    " vs run " + std::to_string(real.events_processed));
    }
    if (broadcast_bytes != real.total_broadcast_bytes) {
        counts.mismatches.push_back("broadcast bytes: replay " +
                                    std::to_string(broadcast_bytes) + " vs run " +
                                    std::to_string(real.total_broadcast_bytes));
    }
    if (counts.rounds != real.rounds.size()) counts.mismatches.push_back("round count");

    queue.time_calls(tracer, root.id());
    server.time_calls(tracer, root.id());
    probe_learner_layers(seed, tracer, root.id());
    if (!membership_on) {
        // Churn is off: time the workload's inactive plan over round 0's cells.
        ScopedSpan span(&tracer, "edgesim.membership", "probe.device_churn", root.id());
        for (std::size_t j = 0; j < devices; ++j) (void)fleet.churn.device_churn(0, j);
        span.add_calls(devices);
    }
    return counts;
}

}  // namespace perfbench
