#include "dp/prior_diagnostics.hpp"

#include <stdexcept>

namespace drel::dp {

double symmetric_kl_estimate(const MixturePrior& p, const MixturePrior& q,
                             std::size_t num_samples, stats::Rng& rng) {
    if (p.dim() != q.dim()) {
        throw std::invalid_argument("symmetric_kl_estimate: dimension mismatch");
    }
    if (num_samples == 0) {
        throw std::invalid_argument("symmetric_kl_estimate: need >= 1 sample");
    }
    double forward = 0.0;
    double backward = 0.0;
    for (std::size_t s = 0; s < num_samples; ++s) {
        const linalg::Vector xp = p.sample(rng);
        forward += p.log_pdf(xp) - q.log_pdf(xp);
        const linalg::Vector xq = q.sample(rng);
        backward += q.log_pdf(xq) - p.log_pdf(xq);
    }
    return 0.5 * (forward + backward) / static_cast<double>(num_samples);
}

}  // namespace drel::dp
