// Prior quality diagnostics (extension).
//
// Before broadcasting a freshly refitted prior to a fleet, the cloud asks
// how different it is from the previous broadcast: is a re-push worth the
// bytes? The lifecycle's re-broadcast trigger answers with this gauge.
#pragma once

#include <cstddef>

#include "dp/mixture_prior.hpp"
#include "stats/rng.hpp"

namespace drel::dp {

/// Monte-Carlo symmetric KL between two priors over the same space:
///   0.5 * E_p[log p - log q] + 0.5 * E_q[log q - log p],
/// estimated with `num_samples` draws from each. Nonnegative up to MC noise;
/// ~0 when the priors agree. The re-broadcast trigger.
double symmetric_kl_estimate(const MixturePrior& p, const MixturePrior& q,
                             std::size_t num_samples, stats::Rng& rng);

}  // namespace drel::dp
