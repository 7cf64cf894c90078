// Batched mixture-prior evaluation over a whole device shard.
//
// The scale fleet scores every healthy device against the broadcast prior:
// K Gaussian log-densities plus a normalization per device. Evaluated
// per-device (MixturePrior::responsibilities_into), each density is a
// dim-sized triangular solve — dozens of tiny dependent kernels whose
// dispatch and loop overhead dominates at fleet scale. This type evaluates
// the SAME mixture against a flat [count x dim] row-major block of thetas in
// one call by restructuring the math around the BATCH axis. The block is
// walked in L1-sized tiles of kTileDevices devices; per tile:
//
//   1. transpose the tile to dim-major (coordinate r of every device
//      contiguous),
//   2. per atom, subtract the mean coordinate-wise (sub_const over the
//      tile's devices at a time) and run the forward substitution with the
//      division and the column updates vectorized across devices
//      (div_const / axpy over tile-length rows),
//   3. accumulate the Mahalanobis quadratics with add_sq and finish each
//      density from the atom's cached log-determinant.
//
// An atom whose Cholesky factor is diagonal (every isotropic or diagonal
// atom, so the scale fleet's whole prior) skips steps 2-3: coordinate r
// needs no other coordinate, and one add_sq_residual pass per coordinate
// accumulates ((theta_r - mu_r) / L(r,r))² with the same subtract, true
// division, multiply and add. The substitution's off-diagonal passes would
// add 0 * y_c, which for a finite theta can only flip the sign of a zero
// before it is squared, so the bits are the same. For a non-finite theta
// the paths part: a diagonal atom scores each coordinate on its own, so
// an infinite coordinate gives a quadratic of +inf (log-density -inf) and
// a NaN gives NaN, where the substitution turns an infinite coordinate
// into 0 * inf = NaN in every later row.
//
// Every inner kernel comes from linalg::simd::active() and is elementwise,
// so results are bit-identical across SIMD backends (scalar/AVX2/NEON) and
// independent of how the fleet is sharded or the batch is tiled: each
// device's row depends only on its own theta, never on batch composition. Against the per-device path the
// values differ by a few ULPs (the solve's reduction runs column-by-column
// across the batch instead of through the 8-lane dot kernel); the naive
// oracle is linalg::reference::batch_log_densities.
//
// Counter parity: a batched call bumps dp.responsibility_evals by `count`,
// exactly what `count` per-device calls would have added.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dp/mixture_prior.hpp"
#include "util/workspace.hpp"

namespace drel::dp {

class BatchResponsibilities {
 public:
    /// Devices per scoring tile. At dim 8 a tile's transposed thetas and
    /// solve rows take 2 x 16 KB and its quadratic row 2 KB, so the ~50
    /// per-atom passes over them hit L1. The kernels are elementwise, so
    /// the tile size never changes a device's bits.
    static constexpr std::size_t kTileDevices = 256;

    /// Borrows `prior` (must outlive this object) and caches the per-atom
    /// constants (log weights, log determinants, factor pointers).
    explicit BatchResponsibilities(const MixturePrior& prior);

    std::size_t num_components() const noexcept { return prior_->num_components(); }
    std::size_t dim() const noexcept { return prior_->dim(); }
    const MixturePrior& prior() const noexcept { return *prior_; }

    /// out[i*K + k] = log pi_k + log N(theta_i; mu_k, Sigma_k) for the
    /// row-major block thetas[count x dim]. `out` must hold count*K doubles.
    void log_densities_into(const double* thetas, std::size_t count, double* out,
                            util::Workspace& ws) const;

    /// accuracy_out[i] = 1.0 if the MAP component of theta_i (the first
    /// argmax over k of log_densities_into's row, as linalg::argmax picks
    /// it) equals tags[i], else 0.0 — the scale fleet's mode-recovery score
    /// for a whole shard in one call. Keeps a running first-max argmax per
    /// device instead of writing rows.
    void score_match_into(const double* thetas, std::size_t count, const std::size_t* tags,
                          double* accuracy_out, util::Workspace& ws) const;

 private:
    /// q[i] = ||L_k⁻¹(theta_i - mu_k)||² over a dim-major tile `tt` of n
    /// devices; `xt` is d * n doubles of substitution scratch.
    void tile_quadratics(std::size_t k, const double* tt, std::size_t n, double* xt,
                         double* q) const;

    const MixturePrior* prior_;
    std::vector<double> log_weights_;  ///< log pi_k, bit-identical to the prior's cache
    std::vector<double> constants_;    ///< d log 2pi + log |Sigma_k|
    std::vector<std::uint8_t> diagonal_;  ///< atom k's Cholesky factor is diagonal
};

}  // namespace drel::dp
