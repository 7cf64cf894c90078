#include <algorithm>

#include "edgesim/shard.hpp"
#include "replay.hpp"

namespace perfbench {
namespace edgesim = drel::edgesim;

namespace {

/// Enough re-issued calls per block span to dwarf the span's clock reads.
constexpr std::uint64_t kMinTimedCalls = 100000;

}  // namespace

void LoggedQueue::schedule(double time, edgesim::EventKind kind, std::size_t round,
                           std::size_t shard, std::size_t device) {
    Op op;
    op.event.time = time;
    op.event.kind = kind;
    op.event.round = static_cast<std::uint32_t>(round);
    op.event.shard = static_cast<std::uint32_t>(shard);
    op.event.device = static_cast<std::uint32_t>(device);
    log_.push_back(op);
    queue_.schedule(time, kind, op.event.round, op.event.shard, op.event.device);
}

edgesim::Event LoggedQueue::pop() {
    log_.push_back(Op{true, {}});
    return queue_.pop();
}

void LoggedQueue::time_calls(Tracer& tracer, std::uint64_t parent) const {
    const std::uint64_t pops = queue_.total_popped();
    const std::uint64_t ops = std::max<std::uint64_t>(1, log_.size());
    const std::uint64_t repeats = std::max<std::uint64_t>(1, kMinTimedCalls / ops);
    ScopedSpan span(&tracer, "edgesim.scheduler", "schedule_pop", parent);
    for (std::uint64_t rep = 0; rep < repeats; ++rep) {
        edgesim::EventQueue q;
        for (const Op& op : log_) {
            if (op.pop) {
                (void)q.pop();
            } else {
                q.schedule(op.event.time, op.event.kind, op.event.round, op.event.shard,
                           op.event.device);
            }
        }
    }
    span.add_calls(pops * repeats);
}

void time_run_round_streams(const drel::stats::Rng& device_root, std::size_t round,
                            const edgesim::ShardLayout& layout,
                            const std::uint8_t* participating, Tracer& tracer,
                            std::uint64_t parent) {
    ScopedSpan span(&tracer, "stats.rng", "probe.run_round_streams", parent);
    std::uint64_t devices = 0;
    for (std::size_t j = layout.begin; j < layout.end; ++j) {
        if (participating != nullptr && participating[j] == 0) continue;
        const drel::stats::Rng work =
            edgesim::device_stream(device_root, round, j, edgesim::DeviceStream::kWork);
        drel::stats::Rng latency =
            edgesim::device_stream(device_root, round, j, edgesim::DeviceStream::kLatency);
        (void)latency.uniform();
        (void)work;
        ++devices;
    }
    span.add_calls(devices);
}

LoggedServer::LoggedServer(const edgesim::ServerConfig& config)
    : config_(config), server_(config) {}

void LoggedServer::begin_round(std::size_t round) {
    log_.push_back({Op::kBeginRound, round, 0.0, {}});
    server_.begin_round(round);
}

bool LoggedServer::offer(edgesim::UploadBatch batch, double now) {
    log_.push_back({Op::kOffer, 0, now, batch});
    ++offers_;
    return server_.offer(std::move(batch), now);
}

void LoggedServer::drain_until(double now) {
    log_.push_back({Op::kDrain, 0, now, {}});
    server_.drain_until(now);
}

std::vector<std::pair<std::size_t, drel::linalg::Vector>> LoggedServer::take_serviced_thetas() {
    log_.push_back({Op::kTake, 0, 0.0, {}});
    return server_.take_serviced_thetas();
}

void LoggedServer::time_calls(Tracer& tracer, std::uint64_t parent) const {
    // Batches are consumed by offer, so each repeat needs its own copy; a
    // few dozen repeats keep the copies small.
    const std::uint64_t repeats =
        std::max<std::uint64_t>(1, 256 / std::max<std::uint64_t>(1, offers_));
    std::vector<std::vector<Op>> copies(repeats, log_);
    ScopedSpan span(&tracer, "edgesim.server", "offer", parent);
    for (std::vector<Op>& ops : copies) {
        edgesim::CloudServer server(config_);
        for (Op& op : ops) {
            switch (op.kind) {
                case Op::kBeginRound: server.begin_round(op.round); break;
                case Op::kOffer: (void)server.offer(std::move(op.batch), op.time); break;
                case Op::kDrain: server.drain_until(op.time); break;
                case Op::kTake: (void)server.take_serviced_thetas(); break;
            }
        }
    }
    span.add_calls(offers_ * repeats);
}

}  // namespace perfbench
