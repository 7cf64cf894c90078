#include "edgesim/device.hpp"

#include <stdexcept>

#include "edgesim/transfer.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace drel::edgesim {

EdgeDevice::EdgeDevice(std::string id, models::Dataset local_data,
                       core::EdgeLearnerConfig config)
    : id_(std::move(id)), local_data_(std::move(local_data)), config_(std::move(config)) {
    if (local_data_.empty()) {
        throw std::invalid_argument("EdgeDevice: local dataset must be non-empty");
    }
}

std::size_t EdgeDevice::receive_prior(const std::vector<std::uint8_t>& encoded) {
    dp::MixturePrior prior = decode_prior(encoded);
    if (prior.dim() != local_data_.dim()) {
        throw std::invalid_argument("EdgeDevice::receive_prior: prior/data dimension mismatch");
    }
    learner_.emplace(std::move(prior), config_);
    static obs::Counter& received = obs::Registry::global().counter("device.priors_received");
    static obs::Counter& bytes =
        obs::Registry::global().counter("device.prior_bytes_received");
    received.add(1);
    bytes.add(encoded.size());
    return encoded.size();
}

bool EdgeDevice::try_receive_prior(const std::vector<std::uint8_t>& encoded) {
    try {
        receive_prior(encoded);
        return true;
    } catch (const std::exception&) {
        static obs::Counter& rejected =
            obs::Registry::global().counter("device.prior_rejected");
        rejected.add(1);
        return false;
    }
}

core::FitResult EdgeDevice::train() {
    if (!learner_) {
        throw std::logic_error("EdgeDevice::train: no prior received yet");
    }
    DREL_PROFILE_SCOPE("device.train");
    static obs::Counter& trainings = obs::Registry::global().counter("device.trainings");
    trainings.add(1);
    fit_ = learner_->fit(local_data_);
    return *fit_;
}

double EdgeDevice::evaluate_accuracy(const models::Dataset& test) const {
    return models::accuracy(model(), test);
}

const models::LinearModel& EdgeDevice::model() const {
    if (!fit_) throw std::logic_error("EdgeDevice::model: train() has not been called");
    return fit_->model;
}

}  // namespace drel::edgesim
