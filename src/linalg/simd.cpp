// Backend kernel tables + one-time dispatch. See simd.hpp for the lane
// contract that makes every backend return the same bits.
//
// The whole project compiles with -ffp-contract=off (top-level
// CMakeLists): GCC's default contraction would fuse the scalar fallback's
// mul+add into an FMA, which rounds once where the non-FMA vector paths
// round twice — silently breaking cross-backend bit-identity. The vector
// paths use separate mul/add intrinsics for the same reason.
#include "linalg/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DREL_SIMD_X86 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define DREL_SIMD_NEON 1
#endif

namespace drel::linalg::simd {
namespace {

// The scalar backend's implementation lives header-inline in simd.hpp
// (namespace simd::scalar) so the small-n fast paths in vector_ops.hpp can
// inline it; the table here just takes its address. finish_dot and
// dot_stride_n are shared by the vector backends below.
using scalar::finish_dot;

constexpr std::size_t W = kAtomLanes;

/// Slot offsets of a packed atom group (pack_atom_lane): the rows of the
/// factor start after the d mean slots; row i after i(i+1)/2 row slots;
/// column i's below-diagonal entries after i(2d-i-1)/2 column slots.
constexpr std::size_t row_slot(std::size_t d, std::size_t i) { return d + i * (i + 1) / 2; }
constexpr std::size_t column_slot(std::size_t d, std::size_t i) {
    return d + d * (d + 1) / 2 + i * (2 * d - i - 1) / 2;
}

/// One atom lane's dot_n over n packed entries (stride W): entry t lands in
/// lane t mod 8, as in dot_n's blocks and tail alike.
double lane_dot(const double* x, const double* y, std::size_t n) {
    double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    for (std::size_t t = 0; t < n; ++t) acc[t & 7] += x[t * W] * y[t * W];
    return scalar::combine_lanes(acc);
}

// The scalar emulation of atom_group_solve: one lane at a time, each the
// per-atom Cholesky solves verbatim. Nothing inlines it, so unlike the
// other scalar kernels it lives here rather than in the header.
void atom_group_solve_scalar(const double* group, const double* theta, std::size_t d,
                             bool back_substitute, double* z, double* quad) {
    for (std::size_t lane = 0; lane < W; ++lane) {
        double* zl = z + lane;
        const double* g = group + lane;
        for (std::size_t i = 0; i < d; ++i) {
            const double* row = g + row_slot(d, i) * W;
            zl[i * W] = ((theta[i] - g[i * W]) - lane_dot(row, zl, i)) / row[i * W];
        }
        quad[lane] = lane_dot(zl, zl, d);
        if (!back_substitute) continue;
        for (std::size_t i = d; i-- > 0;) {
            const std::size_t tail = d - i - 1;
            // Formed only when the column below the diagonal is non-empty,
            // so the pointers stay inside the group and z.
            const double dot =
                tail > 0 ? lane_dot(g + column_slot(d, i) * W, zl + (i + 1) * W, tail) : 0.0;
            zl[i * W] = (zl[i * W] - dot) / g[(row_slot(d, i) + i) * W];
        }
    }
}

constexpr Kernels kScalarTable = {
    Backend::kScalar,    scalar::dot_n,       scalar::dot_stride_n,
    scalar::axpy_n,      scalar::sub_const_n, scalar::div_const_n,
    scalar::add_sq_n,    scalar::add_sq_residual_n,
    atom_group_solve_scalar,
};

// ---------------------------------------------------------------------------
// AVX2 backend. Per-function target attributes keep the rest of the binary
// baseline-ISA; these bodies are only reached after __builtin_cpu_supports
// says yes. Lanes 0..3 live in `lo`, lanes 4..7 in `hi`; vmulpd+vaddpd are
// the same two IEEE roundings the scalar emulation performs per lane.

#if defined(DREL_SIMD_X86)

__attribute__((target("avx2"))) double dot_avx2(const double* x, const double* y,
                                                std::size_t n) {
    __m256d lo = _mm256_setzero_pd();
    __m256d hi = _mm256_setzero_pd();
    std::size_t i = 0;
    const std::size_t n8 = n & ~static_cast<std::size_t>(7);
    for (; i < n8; i += 8) {
        lo = _mm256_add_pd(lo, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
        hi = _mm256_add_pd(
            hi, _mm256_mul_pd(_mm256_loadu_pd(x + i + 4), _mm256_loadu_pd(y + i + 4)));
    }
    double acc[8];
    _mm256_storeu_pd(acc, lo);
    _mm256_storeu_pd(acc + 4, hi);
    return finish_dot(acc, x, y, i, n);
}

__attribute__((target("avx2"))) void axpy_avx2(double alpha, const double* x, double* y,
                                               std::size_t n) {
    const __m256d a = _mm256_set1_pd(alpha);
    std::size_t i = 0;
    const std::size_t n4 = n & ~static_cast<std::size_t>(3);
    for (; i < n4; i += 4) {
        const __m256d prod = _mm256_mul_pd(a, _mm256_loadu_pd(x + i));
        _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
    }
    for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) void sub_const_avx2(const double* x, double c, double* out,
                                                    std::size_t n) {
    const __m256d cv = _mm256_set1_pd(c);
    std::size_t i = 0;
    const std::size_t n4 = n & ~static_cast<std::size_t>(3);
    for (; i < n4; i += 4) {
        _mm256_storeu_pd(out + i, _mm256_sub_pd(_mm256_loadu_pd(x + i), cv));
    }
    for (; i < n; ++i) out[i] = x[i] - c;
}

__attribute__((target("avx2"))) void div_const_avx2(double* x, double c, std::size_t n) {
    const __m256d cv = _mm256_set1_pd(c);
    std::size_t i = 0;
    const std::size_t n4 = n & ~static_cast<std::size_t>(3);
    for (; i < n4; i += 4) {
        _mm256_storeu_pd(x + i, _mm256_div_pd(_mm256_loadu_pd(x + i), cv));
    }
    for (; i < n; ++i) x[i] /= c;
}

__attribute__((target("avx2"))) void add_sq_avx2(const double* x, double* acc,
                                                 std::size_t n) {
    std::size_t i = 0;
    const std::size_t n4 = n & ~static_cast<std::size_t>(3);
    for (; i < n4; i += 4) {
        const __m256d v = _mm256_loadu_pd(x + i);
        _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i), _mm256_mul_pd(v, v)));
    }
    for (; i < n; ++i) acc[i] += x[i] * x[i];
}

__attribute__((target("avx2"))) void add_sq_residual_avx2(const double* x, double c,
                                                          double d, double* acc,
                                                          std::size_t n) {
    const __m256d cv = _mm256_set1_pd(c);
    const __m256d dv = _mm256_set1_pd(d);
    std::size_t i = 0;
    const std::size_t n4 = n & ~static_cast<std::size_t>(3);
    for (; i < n4; i += 4) {
        const __m256d r = _mm256_div_pd(_mm256_sub_pd(_mm256_loadu_pd(x + i), cv), dv);
        _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i), _mm256_mul_pd(r, r)));
    }
    scalar::add_sq_residual_n(x + i, c, d, acc + i, n - i);
}

__attribute__((target("avx2"))) inline __m256d product_avx2(const double* x, const double* y) {
    return _mm256_mul_pd(_mm256_loadu_pd(x), _mm256_loadu_pd(y));
}

/// Four atoms' lane_dot at once: lane j of the result is atom j's dot over
/// n packed entries. Eight accumulators hold the tree's lanes.
__attribute__((target("avx2"))) inline __m256d atoms_dot_avx2(const double* x, const double* y,
                                                              std::size_t n) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    __m256d a4 = _mm256_setzero_pd();
    __m256d a5 = _mm256_setzero_pd();
    __m256d a6 = _mm256_setzero_pd();
    __m256d a7 = _mm256_setzero_pd();
    std::size_t t = 0;
    for (; t + 8 <= n; t += 8, x += 8 * W, y += 8 * W) {
        a0 = _mm256_add_pd(a0, product_avx2(x, y));
        a1 = _mm256_add_pd(a1, product_avx2(x + W, y + W));
        a2 = _mm256_add_pd(a2, product_avx2(x + 2 * W, y + 2 * W));
        a3 = _mm256_add_pd(a3, product_avx2(x + 3 * W, y + 3 * W));
        a4 = _mm256_add_pd(a4, product_avx2(x + 4 * W, y + 4 * W));
        a5 = _mm256_add_pd(a5, product_avx2(x + 5 * W, y + 5 * W));
        a6 = _mm256_add_pd(a6, product_avx2(x + 6 * W, y + 6 * W));
        a7 = _mm256_add_pd(a7, product_avx2(x + 7 * W, y + 7 * W));
    }
    switch (n - t) {
        case 7: a6 = _mm256_add_pd(a6, product_avx2(x + 6 * W, y + 6 * W)); [[fallthrough]];
        case 6: a5 = _mm256_add_pd(a5, product_avx2(x + 5 * W, y + 5 * W)); [[fallthrough]];
        case 5: a4 = _mm256_add_pd(a4, product_avx2(x + 4 * W, y + 4 * W)); [[fallthrough]];
        case 4: a3 = _mm256_add_pd(a3, product_avx2(x + 3 * W, y + 3 * W)); [[fallthrough]];
        case 3: a2 = _mm256_add_pd(a2, product_avx2(x + 2 * W, y + 2 * W)); [[fallthrough]];
        case 2: a1 = _mm256_add_pd(a1, product_avx2(x + W, y + W)); [[fallthrough]];
        case 1: a0 = _mm256_add_pd(a0, product_avx2(x, y)); [[fallthrough]];
        default: break;
    }
    return _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(a0, a4), _mm256_add_pd(a2, a6)),
                         _mm256_add_pd(_mm256_add_pd(a1, a5), _mm256_add_pd(a3, a7)));
}

/// atom_group_solve_scalar with the four lanes in one register: the same
/// per-lane subtract, tree dot and division, one chain of dependent
/// divisions per group instead of one per atom.
__attribute__((target("avx2"))) void atom_group_solve_avx2(const double* group,
                                                           const double* theta, std::size_t d,
                                                           bool back_substitute, double* z,
                                                           double* quad) {
    for (std::size_t i = 0; i < d; ++i) {
        const double* row = group + row_slot(d, i) * W;
        const __m256d b =
            _mm256_sub_pd(_mm256_set1_pd(theta[i]), _mm256_loadu_pd(group + i * W));
        const __m256d num = _mm256_sub_pd(b, atoms_dot_avx2(row, z, i));
        _mm256_storeu_pd(z + i * W, _mm256_div_pd(num, _mm256_loadu_pd(row + i * W)));
    }
    _mm256_storeu_pd(quad, atoms_dot_avx2(z, z, d));
    if (!back_substitute) return;
    for (std::size_t i = d; i-- > 0;) {
        const std::size_t tail = d - i - 1;
        const __m256d dot = tail > 0 ? atoms_dot_avx2(group + column_slot(d, i) * W,
                                                      z + (i + 1) * W, tail)
                                     : _mm256_setzero_pd();
        const __m256d num = _mm256_sub_pd(_mm256_loadu_pd(z + i * W), dot);
        _mm256_storeu_pd(z + i * W,
                         _mm256_div_pd(num, _mm256_loadu_pd(group + (row_slot(d, i) + i) * W)));
    }
}

constexpr Kernels kAvx2Table = {
    Backend::kAvx2, dot_avx2,       scalar::dot_stride_n,
    axpy_avx2,      sub_const_avx2, div_const_avx2,
    add_sq_avx2,    add_sq_residual_avx2,
    atom_group_solve_avx2,
};

#endif  // DREL_SIMD_X86

// ---------------------------------------------------------------------------
// NEON backend (aarch64). Four 2-wide accumulators hold lanes (0,1), (2,3),
// (4,5), (6,7); vmulq+vaddq keep the two-rounding shape (no vfmaq).

#if defined(DREL_SIMD_NEON)

double dot_neon(const double* x, const double* y, std::size_t n) {
    float64x2_t a01 = vdupq_n_f64(0.0);
    float64x2_t a23 = vdupq_n_f64(0.0);
    float64x2_t a45 = vdupq_n_f64(0.0);
    float64x2_t a67 = vdupq_n_f64(0.0);
    std::size_t i = 0;
    const std::size_t n8 = n & ~static_cast<std::size_t>(7);
    for (; i < n8; i += 8) {
        a01 = vaddq_f64(a01, vmulq_f64(vld1q_f64(x + i), vld1q_f64(y + i)));
        a23 = vaddq_f64(a23, vmulq_f64(vld1q_f64(x + i + 2), vld1q_f64(y + i + 2)));
        a45 = vaddq_f64(a45, vmulq_f64(vld1q_f64(x + i + 4), vld1q_f64(y + i + 4)));
        a67 = vaddq_f64(a67, vmulq_f64(vld1q_f64(x + i + 6), vld1q_f64(y + i + 6)));
    }
    double acc[8];
    vst1q_f64(acc, a01);
    vst1q_f64(acc + 2, a23);
    vst1q_f64(acc + 4, a45);
    vst1q_f64(acc + 6, a67);
    return finish_dot(acc, x, y, i, n);
}

void axpy_neon(double alpha, const double* x, double* y, std::size_t n) {
    const float64x2_t a = vdupq_n_f64(alpha);
    std::size_t i = 0;
    const std::size_t n2 = n & ~static_cast<std::size_t>(1);
    for (; i < n2; i += 2) {
        vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), vmulq_f64(a, vld1q_f64(x + i))));
    }
    for (; i < n; ++i) y[i] += alpha * x[i];
}

void sub_const_neon(const double* x, double c, double* out, std::size_t n) {
    const float64x2_t cv = vdupq_n_f64(c);
    std::size_t i = 0;
    const std::size_t n2 = n & ~static_cast<std::size_t>(1);
    for (; i < n2; i += 2) vst1q_f64(out + i, vsubq_f64(vld1q_f64(x + i), cv));
    for (; i < n; ++i) out[i] = x[i] - c;
}

void div_const_neon(double* x, double c, std::size_t n) {
    const float64x2_t cv = vdupq_n_f64(c);
    std::size_t i = 0;
    const std::size_t n2 = n & ~static_cast<std::size_t>(1);
    for (; i < n2; i += 2) vst1q_f64(x + i, vdivq_f64(vld1q_f64(x + i), cv));
    for (; i < n; ++i) x[i] /= c;
}

void add_sq_neon(const double* x, double* acc, std::size_t n) {
    std::size_t i = 0;
    const std::size_t n2 = n & ~static_cast<std::size_t>(1);
    for (; i < n2; i += 2) {
        const float64x2_t v = vld1q_f64(x + i);
        vst1q_f64(acc + i, vaddq_f64(vld1q_f64(acc + i), vmulq_f64(v, v)));
    }
    for (; i < n; ++i) acc[i] += x[i] * x[i];
}

void add_sq_residual_neon(const double* x, double c, double d, double* acc, std::size_t n) {
    const float64x2_t cv = vdupq_n_f64(c);
    const float64x2_t dv = vdupq_n_f64(d);
    std::size_t i = 0;
    const std::size_t n2 = n & ~static_cast<std::size_t>(1);
    for (; i < n2; i += 2) {
        const float64x2_t r = vdivq_f64(vsubq_f64(vld1q_f64(x + i), cv), dv);
        vst1q_f64(acc + i, vaddq_f64(vld1q_f64(acc + i), vmulq_f64(r, r)));
    }
    scalar::add_sq_residual_n(x + i, c, d, acc + i, n - i);
}

// The atom kernel runs the scalar emulation here: a 2-wide lane pair would
// halve the dependent-division chains at best, and no CI leg runs NEON.
constexpr Kernels kNeonTable = {
    Backend::kNeon, dot_neon,       scalar::dot_stride_n,
    axpy_neon,      sub_const_neon, div_const_neon,
    add_sq_neon,    add_sq_residual_neon,
    atom_group_solve_scalar,
};

#endif  // DREL_SIMD_NEON

// ---------------------------------------------------------------------------
// Selection.

/// DREL_SIMD names a backend: honor it when the host can run it, fall back
/// to scalar when it cannot (a CI leg asking for avx2 on an ARM runner gets
/// a deterministic answer, not a SIGILL). Unset or unrecognized → best
/// available.
const Kernels* resolve_default() {
    const char* env = std::getenv("DREL_SIMD");
    if (env != nullptr) {
        if (std::strcmp(env, "scalar") == 0) return &kScalarTable;
        if (std::strcmp(env, "avx2") == 0) {
            const Kernels* t = backend_kernels(Backend::kAvx2);
            return t != nullptr ? t : &kScalarTable;
        }
        if (std::strcmp(env, "neon") == 0) {
            const Kernels* t = backend_kernels(Backend::kNeon);
            return t != nullptr ? t : &kScalarTable;
        }
    }
    if (const Kernels* t = backend_kernels(Backend::kAvx2)) return t;
    if (const Kernels* t = backend_kernels(Backend::kNeon)) return t;
    return &kScalarTable;
}

}  // namespace

void pack_atom_lane(const double* lower, const double* mean, std::size_t d, std::size_t lane,
                    double* group) noexcept {
    double* slot = group + lane;
    for (std::size_t i = 0; i < d; ++i, slot += W) *slot = mean[i];
    for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t c = 0; c <= i; ++c, slot += W) *slot = lower[i * d + c];
    }
    for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t r = i + 1; r < d; ++r, slot += W) *slot = lower[r * d + i];
    }
}

namespace detail {

std::atomic<const Kernels*> g_active{nullptr};

const Kernels& resolve_active() noexcept {
    const Kernels* t = resolve_default();
    // Racing first calls all resolve to the same table (the env var and the
    // CPU don't change), so the last store wins harmlessly.
    g_active.store(t, std::memory_order_release);
    return *t;
}

}  // namespace detail

Backend active_backend() noexcept { return active().backend; }

const char* backend_name(Backend backend) noexcept {
    switch (backend) {
        case Backend::kScalar: return "scalar";
        case Backend::kAvx2: return "avx2";
        case Backend::kNeon: return "neon";
    }
    return "unknown";
}

bool backend_available(Backend backend) noexcept {
    return backend_kernels(backend) != nullptr;
}

const Kernels* backend_kernels(Backend backend) noexcept {
    switch (backend) {
        case Backend::kScalar:
            return &kScalarTable;
        case Backend::kAvx2:
#if defined(DREL_SIMD_X86)
            return __builtin_cpu_supports("avx2") ? &kAvx2Table : nullptr;
#else
            return nullptr;
#endif
        case Backend::kNeon:
#if defined(DREL_SIMD_NEON)
            return &kNeonTable;
#else
            return nullptr;
#endif
    }
    return nullptr;
}

ScopedBackendForTesting::ScopedBackendForTesting(Backend backend)
    : previous_(&active()) {  // forces resolution, so previous_ is never null
    const Kernels* table = backend_kernels(backend);
    if (table == nullptr) table = backend_kernels(Backend::kScalar);
    detail::g_active.store(table, std::memory_order_release);
}

ScopedBackendForTesting::~ScopedBackendForTesting() {
    detail::g_active.store(previous_, std::memory_order_release);
}

}  // namespace drel::linalg::simd
