#include "dp/batch_responsibilities.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "stats/multivariate_normal.hpp"

namespace drel::dp {
namespace {

// Must match multivariate_normal.cpp so the batched density reproduces the
// per-device constant term exactly.
constexpr double kLogTwoPi = 1.8378770664093454836;

obs::Counter& responsibility_evals() {
    static obs::Counter& c = obs::Registry::global().counter("dp.responsibility_evals");
    return c;
}

}  // namespace

BatchResponsibilities::BatchResponsibilities(const MixturePrior& prior) : prior_(&prior) {
    log_weights_.reserve(prior.num_components());
    log_dets_.reserve(prior.num_components());
    for (std::size_t k = 0; k < prior.num_components(); ++k) {
        // log of the same normalized double the prior cached at construction.
        log_weights_.push_back(std::log(prior.weights()[k]));
        log_dets_.push_back(prior.atom(k).log_det());
    }
}

void BatchResponsibilities::log_densities_into(const double* thetas, std::size_t count,
                                               double* out, util::Workspace& ws) const {
    DREL_PROFILE_SCOPE("dp.batch_log_densities");
    if (count == 0) return;
    const std::size_t d = dim();
    const std::size_t num_k = num_components();
    const linalg::simd::Kernels& kernels = linalg::simd::active();

    // The batch is walked in tiles of kTileDevices: every per-atom pass
    // below re-reads the tile's rows, which stay in L1 instead of
    // streaming the whole shard's block from L2/L3 once per pass.
    const std::size_t tile = std::min(count, kTileDevices);
    auto transposed = ws.vec(d * tile);
    auto solve = ws.vec(d * tile);
    auto quad = ws.vec(tile);
    double* tt = transposed.data();
    double* xt = solve.data();
    double* q = quad.data();
    for (std::size_t first = 0; first < count; first += tile) {
        const std::size_t n = std::min(tile, count - first);
        const double* block = thetas + first * d;
        double* block_out = out + first * num_k;

        // Transpose the tile: coordinate r of every device contiguous, so
        // each substitution step streams over the batch axis.
        for (std::size_t i = 0; i < n; ++i) {
            const double* theta = block + i * d;
            for (std::size_t r = 0; r < d; ++r) tt[r * n + i] = theta[r];
        }
        for (std::size_t k = 0; k < num_k; ++k) {
            const stats::MultivariateNormal& atom = prior_->atom(k);
            const double* mean = atom.mean().data();
            const linalg::Matrix& lower = atom.chol().lower();

            // Residual rows: xt[r] = theta[r] - mu_k[r] across the tile.
            for (std::size_t r = 0; r < d; ++r) {
                kernels.sub_const_n(tt + r * n, mean[r], xt + r * n, n);
            }
            // Forward substitution L y = residual, one coordinate at a
            // time, each step an n-wide elementwise kernel:
            //   y_r = (b_r - sum_{c<r} L(r,c) y_c) / L(r,r).
            for (std::size_t r = 0; r < d; ++r) {
                const double* l_row = lower.row_data(r);
                double* y_r = xt + r * n;
                for (std::size_t c = 0; c < r; ++c) {
                    kernels.axpy_n(-l_row[c], xt + c * n, y_r, n);
                }
                kernels.div_const_n(y_r, l_row[r], n);
            }
            // q[i] = ||L^{-1}(theta_i - mu_k)||^2, accumulated coordinate-
            // ascending — a fixed order, so tile- and batch-size
            // independent.
            std::fill(q, q + n, 0.0);
            for (std::size_t r = 0; r < d; ++r) kernels.add_sq_n(xt + r * n, q, n);
            const double constant = static_cast<double>(d) * kLogTwoPi + log_dets_[k];
            for (std::size_t i = 0; i < n; ++i) {
                block_out[i * num_k + k] = log_weights_[k] - 0.5 * (constant + q[i]);
            }
        }
    }
}

void BatchResponsibilities::responsibilities_into(const double* thetas, std::size_t count,
                                                  double* out, util::Workspace& ws) const {
    responsibility_evals().add(count);
    log_densities_into(thetas, count, out, ws);
    const std::size_t num_k = num_components();
    for (std::size_t i = 0; i < count; ++i) {
        double* row = out + i * num_k;
        // Same max-shifted log-sum-exp as linalg::softmax_inplace.
        const double m = *std::max_element(row, row + num_k);
        double acc = 0.0;
        for (std::size_t k = 0; k < num_k; ++k) acc += std::exp(row[k] - m);
        const double lse = m + std::log(acc);
        for (std::size_t k = 0; k < num_k; ++k) row[k] = std::exp(row[k] - lse);
    }
}

void BatchResponsibilities::map_components_into(const double* thetas, std::size_t count,
                                                std::size_t* out, util::Workspace& ws) const {
    responsibility_evals().add(count);
    if (count == 0) return;
    const std::size_t num_k = num_components();
    auto densities = ws.vec(count * num_k);
    log_densities_into(thetas, count, densities.data(), ws);
    for (std::size_t i = 0; i < count; ++i) {
        const double* row = densities.data() + i * num_k;
        // The softmax is monotone, so the MAP component is the density
        // argmax; first max wins, matching linalg::argmax.
        out[i] = static_cast<std::size_t>(std::max_element(row, row + num_k) - row);
    }
}

void BatchResponsibilities::score_match_into(const double* thetas, std::size_t count,
                                             const std::size_t* tags, double* accuracy_out,
                                             util::Workspace& ws) const {
    DREL_PROFILE_SCOPE("dp.batch_score_match");
    responsibility_evals().add(count);
    if (count == 0) return;
    const std::size_t d = dim();
    const std::size_t num_k = num_components();
    // One tile of densities at a time, so the argmax reads each row while
    // it is still in L1.
    auto densities = ws.vec(std::min(count, kTileDevices) * num_k);
    for (std::size_t first = 0; first < count; first += kTileDevices) {
        const std::size_t n = std::min(kTileDevices, count - first);
        log_densities_into(thetas + first * d, n, densities.data(), ws);
        for (std::size_t i = 0; i < n; ++i) {
            const double* row = densities.data() + i * num_k;
            const std::size_t map_k =
                static_cast<std::size_t>(std::max_element(row, row + num_k) - row);
            accuracy_out[first + i] = map_k == tags[first + i] ? 1.0 : 0.0;
        }
    }
}

}  // namespace drel::dp
