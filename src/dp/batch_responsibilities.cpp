#include "dp/batch_responsibilities.hpp"

#include <algorithm>
#include <array>
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

/// Writes the n x d row-major tile `block` dim-major into `tt`: coordinate
/// r of every device contiguous, so each pass streams over the batch axis.
void transpose_tile(const double* block, std::size_t n, std::size_t d, double* tt) {
    for (std::size_t i = 0; i < n; ++i) {
        const double* theta = block + i * d;
        for (std::size_t r = 0; r < d; ++r) tt[r * n + i] = theta[r];
    }
}

}  // namespace

BatchResponsibilities::BatchResponsibilities(const MixturePrior& prior) : prior_(&prior) {
    const std::size_t d = prior.dim();
    log_weights_.reserve(prior.num_components());
    constants_.reserve(prior.num_components());
    diagonal_.reserve(prior.num_components());
    for (std::size_t k = 0; k < prior.num_components(); ++k) {
        // log of the same normalized double the prior cached at construction.
        log_weights_.push_back(std::log(prior.weights()[k]));
        constants_.push_back(static_cast<double>(d) * kLogTwoPi + prior.atom(k).log_det());
        const linalg::Matrix& lower = prior.atom(k).chol().lower();
        bool diagonal = true;
        for (std::size_t r = 0; r < d && diagonal; ++r) {
            for (std::size_t c = 0; c < r; ++c) diagonal = diagonal && lower(r, c) == 0.0;
        }
        diagonal_.push_back(diagonal ? 1 : 0);
    }
}

void BatchResponsibilities::tile_quadratics(std::size_t k, const double* tt, std::size_t n,
                                            double* xt, double* q) const {
    const std::size_t d = dim();
    const linalg::simd::Kernels& kernels = linalg::simd::active();
    const stats::MultivariateNormal& atom = prior_->atom(k);
    const double* mean = atom.mean().data();
    const linalg::Matrix& lower = atom.chol().lower();
    std::fill(q, q + n, 0.0);
    if (diagonal_[k] != 0) {
        // y_r = (theta_r - mu_r) / L(r,r) needs no other coordinate, so each
        // coordinate is one fused pass. The substitution below would add
        // 0 * y_c terms, which can only flip the sign of a zero before it
        // is squared: the same bits for finite thetas.
        for (std::size_t r = 0; r < d; ++r) {
            kernels.add_sq_residual_n(tt + r * n, mean[r], lower(r, r), q, n);
        }
        return;
    }
    // Residual rows: xt[r] = theta[r] - mu_k[r] across the tile.
    for (std::size_t r = 0; r < d; ++r) {
        kernels.sub_const_n(tt + r * n, mean[r], xt + r * n, n);
    }
    // Forward substitution L y = residual, one coordinate at a time, each
    // step an n-wide elementwise kernel:
    //   y_r = (b_r - sum_{c<r} L(r,c) y_c) / L(r,r).
    for (std::size_t r = 0; r < d; ++r) {
        const double* l_row = lower.row_data(r);
        double* y_r = xt + r * n;
        for (std::size_t c = 0; c < r; ++c) {
            kernels.axpy_n(-l_row[c], xt + c * n, y_r, n);
        }
        kernels.div_const_n(y_r, l_row[r], n);
    }
    // q[i] = ||L^{-1}(theta_i - mu_k)||^2, accumulated coordinate-ascending
    // — a fixed order, so tile- and batch-size independent.
    for (std::size_t r = 0; r < d; ++r) kernels.add_sq_n(xt + r * n, q, n);
}

void BatchResponsibilities::log_densities_into(const double* thetas, std::size_t count,
                                               double* out, util::Workspace& ws) const {
    DREL_PROFILE_SCOPE("dp.batch_log_densities");
    if (count == 0) return;
    const std::size_t d = dim();
    const std::size_t num_k = num_components();

    // The batch is walked in tiles of kTileDevices: every per-atom pass
    // below re-reads the tile's rows, which stay in L1 instead of
    // streaming the whole shard's block from L2/L3 once per pass.
    const std::size_t tile = std::min(count, kTileDevices);
    auto transposed = ws.vec(d * tile);
    auto solve = ws.vec(d * tile);
    auto quad = ws.vec(tile);
    double* tt = transposed.data();
    double* q = quad.data();
    for (std::size_t first = 0; first < count; first += tile) {
        const std::size_t n = std::min(tile, count - first);
        transpose_tile(thetas + first * d, n, d, tt);
        double* block_out = out + first * num_k;
        for (std::size_t k = 0; k < num_k; ++k) {
            tile_quadratics(k, tt, n, solve.data(), q);
            for (std::size_t i = 0; i < n; ++i) {
                block_out[i * num_k + k] = log_weights_[k] - 0.5 * (constants_[k] + q[i]);
            }
        }
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
    const std::size_t tile = std::min(count, kTileDevices);
    auto transposed = ws.vec(d * tile);
    auto solve = ws.vec(d * tile);
    auto quad = ws.vec(tile);
    auto best = ws.vec(tile);
    double* tt = transposed.data();
    double* q = quad.data();
    double* top = best.data();
    std::array<std::size_t, kTileDevices> map_k{};
    for (std::size_t first = 0; first < count; first += tile) {
        const std::size_t n = std::min(tile, count - first);
        transpose_tile(thetas + first * d, n, d, tt);
        // A running first-max argmax over the atoms: the update takes a
        // later atom only when it is strictly greater, exactly as
        // std::max_element walks a row of log_densities_into.
        for (std::size_t k = 0; k < num_k; ++k) {
            tile_quadratics(k, tt, n, solve.data(), q);
            for (std::size_t i = 0; i < n; ++i) {
                const double density = log_weights_[k] - 0.5 * (constants_[k] + q[i]);
                if (k == 0 || top[i] < density) {
                    top[i] = density;
                    map_k[i] = k;
                }
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            accuracy_out[first + i] = map_k[i] == tags[first + i] ? 1.0 : 0.0;
        }
    }
}

}  // namespace drel::dp
