// Runtime-dispatched SIMD kernels under the linalg hot paths.
//
// One kernel table per backend (scalar fallback, AVX2 on x86-64, NEON on
// aarch64); the active table is chosen ONCE — at first use — from the host
// CPU, overridable with DREL_SIMD=scalar|avx2|neon for testing the fallback
// on vector hardware. Everything above this layer (vector_ops, matrix,
// cholesky, the batched responsibilities kernel) calls through the table and
// never touches an intrinsic.
//
// The lane contract (why results are bit-identical across backends)
// -----------------------------------------------------------------
// Reduction kernels (dot_n, dot_stride_n) accumulate into a FIXED tree of 8
// lanes regardless of backend: element i lands in lane i mod 8, blocks of 8
// are added lane-wise, and the lanes are combined in the fixed order
//     ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7)).
// The scalar fallback *emulates* that tree with a plain array, so scalar,
// AVX2 (two 4-wide accumulators) and NEON (four 2-wide accumulators) perform
// the same IEEE additions and multiplications in the same order — every
// backend returns the same bits, and golden files recorded under one
// dispatch mode verify under all of them. The price is that dot results
// differ from the naive left-to-right reference (linalg/reference.hpp) by a
// documented few ULPs (tests/test_simd_dispatch.cpp pins the bound); they
// are typically *more* accurate, being a partial pairwise summation.
//
// Elementwise kernels (axpy_n, sub_const_n, div_const_n, add_sq_n,
// add_sq_residual_n) have no cross-element dependence, so they are bit-identical across backends AND
// bit-identical to the reference, provided no TU fuses the multiply and
// add. The whole project is therefore compiled with -ffp-contract=off
// (top-level CMakeLists — the scalar kernels below are header-inline) and
// the vector paths use separate mul/add intrinsics, never FMA.
//
// The atom kernel (atom_group_solve) runs the triangular solves of four
// Gaussian atoms side by side, one atom per vector lane. Lanes never mix,
// and inside a lane every substitution step is the 8-lane tree dot above
// followed by a subtract and a true division, so each atom gets the bits
// of its own Cholesky solves under every backend.
#pragma once

#include <atomic>
#include <cstddef>

namespace drel::linalg::simd {

enum class Backend {
    kScalar = 0,  ///< lane-contract emulation in plain C++ — always available
    kAvx2 = 1,    ///< x86-64 with AVX2
    kNeon = 2,    ///< aarch64 ASIMD
};

/// The per-backend kernel table. All pointers are always non-null.
struct Kernels {
    Backend backend;

    /// <x, y> over n entries, 8-lane tree accumulation.
    double (*dot_n)(const double* x, const double* y, std::size_t n);
    /// <x[i*x_stride], y[i]> over n entries, same 8-lane tree. Used by the
    /// back-substitution, whose column access walks rows of L.
    double (*dot_stride_n)(const double* x, std::size_t x_stride, const double* y,
                           std::size_t n);
    /// y[i] += alpha * x[i] (elementwise; bit-identical to the naive loop).
    void (*axpy_n)(double alpha, const double* x, double* y, std::size_t n);
    /// out[i] = x[i] - c (elementwise).
    void (*sub_const_n)(const double* x, double c, double* out, std::size_t n);
    /// x[i] /= c (elementwise true division — NOT multiply-by-reciprocal,
    /// so it matches per-element scalar division bit-for-bit).
    void (*div_const_n)(double* x, double c, std::size_t n);
    /// acc[i] += x[i] * x[i] (elementwise).
    void (*add_sq_n)(const double* x, double* acc, std::size_t n);
    /// acc[i] += ((x[i] - c) / d)² (elementwise): sub_const_n, div_const_n
    /// and add_sq_n in one pass, with the same subtract, true division,
    /// multiply and add, so bit-identical to the three run in turn.
    void (*add_sq_residual_n)(const double* x, double c, double d, double* acc,
                              std::size_t n);
    /// Lockstep solves for one packed group of kAtomLanes Gaussian atoms of
    /// dimension d (layout: pack_atom_lane). For each lane j, writes the
    /// forward solve z_j = L_j⁻¹(theta - mean_j) to z[i * kAtomLanes + j]
    /// and ‖z_j‖² to quad[j]; with `back_substitute`, then overwrites z_j
    /// with L_j⁻ᵀ z_j = Σ_j⁻¹(theta - mean_j). Every lane performs exactly
    /// the IEEE operations of Cholesky::solve_lower_in_place, dot_n(z, z, d)
    /// and Cholesky::solve_upper_in_place: each substitution subtracts the
    /// 8-lane tree dot of the solved prefix, then truly divides.
    void (*atom_group_solve)(const double* group, const double* theta, std::size_t d,
                             bool back_substitute, double* z, double* quad);
};

/// Atoms per atom_group_solve group: one AVX2 register of doubles.
inline constexpr std::size_t kAtomLanes = 4;

/// Doubles one packed atom group of dimension d occupies.
constexpr std::size_t atom_group_size(std::size_t d) noexcept {
    return (d + d * d) * kAtomLanes;
}

/// Writes one atom — its d×d row-major lower Cholesky factor and its mean —
/// into lane `lane` of a packed group. Each entry sits at [slot *
/// kAtomLanes + lane], the slots running: the mean (d); the rows of the
/// factor, diagonal included (d(d+1)/2), for the forward solve; its columns
/// below the diagonal (d(d-1)/2), for the back solve.
void pack_atom_lane(const double* lower, const double* mean, std::size_t d, std::size_t lane,
                    double* group) noexcept;

// ---------------------------------------------------------------------------
// Scalar backend, header-inline.
//
// This is the single source of truth for the lane contract: the scalar
// kernel TABLE points at these functions, and the small-n fast paths in
// vector_ops.hpp inline them directly (for a dim-9 triangular solve the
// dispatch indirection would cost more than the arithmetic). The whole
// project compiles with -ffp-contract=off (top-level CMakeLists), so the
// inlined copies perform the same two-rounding mul+add as the vector
// intrinsics in every TU — inlining can never break bit-identity.

namespace scalar {

/// The fixed tree that combines the 8 lanes of every reduction.
inline double combine_lanes(const double* acc) noexcept {
    return ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
}

/// Tail elements continue the i mod 8 lane assignment, then the lanes are
/// combined in the fixed tree order. Every backend funnels through this
/// epilogue, so the final reduction is the same instruction sequence
/// everywhere.
inline double finish_dot(double* acc, const double* x, const double* y, std::size_t i,
                         std::size_t n) noexcept {
    for (; i < n; ++i) acc[i & 7] += x[i] * y[i];
    return combine_lanes(acc);
}

/// 8-lane tree emulation with a plain array — bit-identical to the AVX2 and
/// NEON dot kernels.
inline double dot_n(const double* x, const double* y, std::size_t n) noexcept {
    double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    const std::size_t n8 = n & ~static_cast<std::size_t>(7);
    for (; i < n8; i += 8) {
        for (std::size_t j = 0; j < 8; ++j) acc[j] += x[i + j] * y[i + j];
    }
    return finish_dot(acc, x, y, i, n);
}

/// Strided dots walk a matrix column (stride = row length), which no target
/// here gathers profitably; every backend's table points at this one loop,
/// so the entry exists for uniformity and future gather targets.
inline double dot_stride_n(const double* x, std::size_t x_stride, const double* y,
                           std::size_t n) noexcept {
    double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    const std::size_t n8 = n & ~static_cast<std::size_t>(7);
    for (; i < n8; i += 8) {
        for (std::size_t j = 0; j < 8; ++j) acc[j] += x[(i + j) * x_stride] * y[i + j];
    }
    for (; i < n; ++i) acc[i & 7] += x[i * x_stride] * y[i];
    return combine_lanes(acc);
}

inline void axpy_n(double alpha, const double* x, double* y, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

inline void sub_const_n(const double* x, double c, double* out, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) out[i] = x[i] - c;
}

inline void div_const_n(double* x, double c, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) x[i] /= c;
}

inline void add_sq_n(const double* x, double* acc, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) acc[i] += x[i] * x[i];
}

inline void add_sq_residual_n(const double* x, double c, double d, double* acc,
                              std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
        const double r = (x[i] - c) / d;
        acc[i] += r * r;
    }
}

}  // namespace scalar

namespace detail {

/// Resolved active table; null until the first use. The slow path (env-var
/// parse + CPU probe) lives in simd.cpp; racing first calls resolve to the
/// same table, so the unsynchronized publish is benign.
extern std::atomic<const Kernels*> g_active;
const Kernels& resolve_active() noexcept;

}  // namespace detail

/// The active table: DREL_SIMD override if set and available, else the best
/// backend the CPU supports, resolved once. Never fails — the scalar table
/// is the floor. Inline so a hot caller pays one predictable load, not a
/// cross-TU call: the hot kernels sit under dim-9 triangular solves where
/// dispatch overhead is comparable to the arithmetic.
inline const Kernels& active() noexcept {
    const Kernels* t = detail::g_active.load(std::memory_order_acquire);
    return t != nullptr ? *t : detail::resolve_active();
}

/// Backend of the active table.
Backend active_backend() noexcept;

/// "scalar" / "avx2" / "neon".
const char* backend_name(Backend backend) noexcept;

/// Whether `backend` can run on this host.
bool backend_available(Backend backend) noexcept;

/// Table for a specific backend, or nullptr when the host cannot run it —
/// lets the differential tests compare every available backend in-process.
const Kernels* backend_kernels(Backend backend) noexcept;

/// RAII override of the active table, for tests that exercise a specific
/// dispatch mode without re-execing under DREL_SIMD. Falls back to the
/// scalar table when the requested backend is unavailable (mirroring the
/// env-var policy). Overrides nest; restore happens in reverse order. Not
/// safe to construct/destroy while other threads are inside kernels.
class ScopedBackendForTesting {
 public:
    explicit ScopedBackendForTesting(Backend backend);
    ~ScopedBackendForTesting();

    ScopedBackendForTesting(const ScopedBackendForTesting&) = delete;
    ScopedBackendForTesting& operator=(const ScopedBackendForTesting&) = delete;

 private:
    const Kernels* previous_;
};

}  // namespace drel::linalg::simd
