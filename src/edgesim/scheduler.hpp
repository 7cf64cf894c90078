// Deterministic event scheduler for the sharded fleet engine.
//
// The engine advances a VIRTUAL clock, never wall time: every event carries
// a virtual timestamp in simulated seconds, and the queue hands events back
// in (time, insertion order) order. The insertion-order tie-break is what
// makes the whole simulator reproducible — two shards whose upload batches
// arrive at the same virtual instant are processed in the order they were
// scheduled, which is itself deterministic (shards are scheduled in index
// order), so a run is bit-identical across thread counts and across
// repeated executions. Wall-clock throughput is measured around the loop,
// outside it; nothing inside the loop ever reads a real clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace drel::edgesim {

/// What the engine does when an event fires. The payload (round, shard) is
/// enough for every current event kind; the scheduler itself is agnostic.
enum class EventKind : std::uint8_t {
    kRoundStart,         ///< fan the round's shard computations out
    kUploadArrival,      ///< one shard's upload batch reaches the server
    kRoundEnd,           ///< close the round: drain the server, refresh the prior
    kHeartbeatDeadline,  ///< fold the round's heartbeat/leave outcomes (membership)
    kDeviceJoin,         ///< an Unknown slot announces itself (membership)
    kDeviceRejoin,       ///< a Dead device comes back (membership)
};

const char* to_string(EventKind kind) noexcept;

struct Event {
    double time = 0.0;        ///< virtual seconds
    std::uint64_t seq = 0;    ///< insertion order; FIFO among equal times
    EventKind kind = EventKind::kRoundStart;
    std::uint32_t round = 0;
    std::uint32_t shard = 0;
    std::uint32_t device = 0;  ///< payload for kDeviceJoin/kDeviceRejoin
};

/// Min-heap on (time, seq). `pop()` advances the virtual clock; scheduling
/// an event before the current virtual time throws — the simulator must
/// never travel backwards, or determinism claims become unfalsifiable.
class EventQueue {
 public:
    /// Enqueues an event at virtual `time`. Throws std::invalid_argument if
    /// `time` is non-finite or earlier than the clock (`now()`).
    void schedule(double time, EventKind kind, std::uint32_t round, std::uint32_t shard = 0,
                  std::uint32_t device = 0);

    /// Removes and returns the earliest event (FIFO among ties) and advances
    /// the clock to its time. Throws std::logic_error on an empty queue.
    Event pop();

    bool empty() const noexcept { return heap_.empty(); }
    std::size_t size() const noexcept { return heap_.size(); }

    /// Virtual time of the last popped event (0 before the first pop).
    double now() const noexcept { return now_; }

    /// Lifetime pop count (diagnostics; the engine reports it).
    std::uint64_t total_popped() const noexcept { return popped_; }

    /// Largest queue size ever reached — the PEAK backlog, not a sample.
    /// The engine surfaces it so capacity planning sees worst-case depth.
    std::size_t high_water() const noexcept { return high_water_; }

 private:
    std::vector<Event> heap_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t popped_ = 0;
    double now_ = 0.0;
    std::size_t high_water_ = 0;
};

}  // namespace drel::edgesim
