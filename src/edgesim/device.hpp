// EdgeDevice — the receiving side of the knowledge transfer.
//
// A device owns a small local dataset, accepts the encoded prior from the
// cloud (counting the bytes, which the communication benches report), and
// trains with core::EdgeLearner. It models the ICDCS deployment unit: all
// computation in receive_prior()/train() is something a constrained edge
// box would actually run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/edge_learner.hpp"
#include "models/dataset.hpp"
#include "models/metrics.hpp"

namespace drel::edgesim {

class EdgeDevice {
 public:
    EdgeDevice(std::string id, models::Dataset local_data, core::EdgeLearnerConfig config);

    const std::string& id() const noexcept { return id_; }
    const models::Dataset& local_data() const noexcept { return local_data_; }

    /// Decodes and installs the cloud prior; returns the payload size.
    /// Throws std::invalid_argument on a malformed payload or dimension
    /// mismatch — the strict path for callers that control the bytes.
    std::size_t receive_prior(const std::vector<std::uint8_t>& encoded);

    /// Tolerant install for payloads that crossed a faulty link: returns
    /// false (counting `device.prior_rejected`) instead of throwing when the
    /// payload is garbled or mismatched. The device keeps any previously
    /// installed prior; with none, its graceful fallback is local-only ERM.
    bool try_receive_prior(const std::vector<std::uint8_t>& encoded);

    /// Trains on the local data. Requires a received prior.
    core::FitResult train();

    /// Accuracy of the last trained model on `test`. Requires train().
    double evaluate_accuracy(const models::Dataset& test) const;

    const models::LinearModel& model() const;

 private:
    std::string id_;
    models::Dataset local_data_;
    core::EdgeLearnerConfig config_;
    std::optional<core::EdgeLearner> learner_;
    std::optional<core::FitResult> fit_;
};

}  // namespace drel::edgesim
