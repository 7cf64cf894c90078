// Cloud -> edge knowledge-transfer wire format.
//
// The transferred knowledge is a truncated DP prior: K weighted Gaussian
// atoms over the theta space. Two little-endian framings share the magic
// and header prefix:
//
//   magic "DRELPRIO" (8 bytes) | version u32 | flags u32 | K u32 | dim u32
//
// v1 (the default — byte-identical to every prior release):
//   per atom: weight f64 | mean dim x f64-or-f32
//             | covariance payload (full lower triangle or diagonal)
//
// v2 appends to the header:
//   prior_version u64                      — the broadcast's ack counter
//   base_version u64     (iff kFlagDelta)  — the base this delta is against
//   quant_bits u8        (iff kFlagQuantized)
// then per atom:
//   presence u8 (iff kFlagDelta and the base has an atom at this index;
//                0 = atom is bit-identical to the base atom, nothing
//                follows; 1 = full payload follows)
//   weight f64 | mean section | covariance section
//
// A quantized section is `min f64 | max f64 | ceil(n*bits/8) packed bytes`
// holding n values affine-quantized to `quant_bits` bits: levels =
// 2^bits - 1, q = round((v - min) / (max - min) * levels), decoded as
// min + q * (max - min) / levels. The worst-case reconstruction error is
//
//   |v - v_hat| <= (max - min) / (2 * levels)
//
// per section (mean and covariance quantize separately per atom; weights
// always travel as f64). Under kFlagDelta the section carries RESIDUALS
// against the base atom, whose span — and therefore error — shrinks toward
// zero as the prior converges. test_transfer_v2.cpp pins the bound per
// bit-width; unquantized delta payloads reconstruct exactly.
//
// Flags registry (decoders reject any bit not registered FOR THE CLAIMED
// VERSION, so a v1 decoder rejects v2-only bits instead of misreading the
// geometry):
//   kFlagFloat32      v1+  4-byte scalars for means/covariances
//   kFlagDiagonalOnly v1+  ship only diag(Sigma_k)
//   kFlagQuantized    v2   bit-packed affine quantization per section
//   kFlagDelta        v2   per-atom delta against the last-acked prior
//
// Every decoder validates magic, version, flags and header geometry before
// the first atom, rejecting a header whose K x d x d covariance entries
// exceed 2^22 (encode_prior refuses the same priors), bounds-checks every
// read, and throws std::invalid_argument on any malformed input (fuzzed with
// truncated, bit-flipped and overlong buffers for both versions).
#pragma once

#include <cstdint>
#include <vector>

#include "dp/mixture_prior.hpp"

namespace drel::edgesim {

inline constexpr std::uint32_t kWireV1 = 1;
inline constexpr std::uint32_t kWireV2 = 2;

// The flags registry.
inline constexpr std::uint32_t kFlagFloat32 = 1u << 0;
inline constexpr std::uint32_t kFlagDiagonalOnly = 1u << 1;
inline constexpr std::uint32_t kFlagQuantized = 1u << 2;  // v2 only
inline constexpr std::uint32_t kFlagDelta = 1u << 3;      // v2 only

struct EncodingOptions {
    bool use_float32 = false;
    bool diagonal_only = false;

    /// Wire version to emit. kWireV1 (default) is byte-identical to the
    /// historical format; quantized/delta require kWireV2.
    std::uint32_t version = kWireV1;
    /// v2: bit-pack means/covariances at `quantization_bits` per value.
    /// Mutually exclusive with use_float32 (they are competing fidelity
    /// ladders; combining them would quantize already-rounded floats).
    bool quantized = false;
    int quantization_bits = 8;  ///< in [2, 16]
    /// v2: delta-encode atoms against the device's last-acked prior.
    bool delta = false;
    /// v2: monotone broadcast counter carried in the header (the ack
    /// devices echo back; deltas name their base by it).
    std::uint64_t prior_version = 0;

    /// Throws std::invalid_argument on inconsistent settings (v2-only
    /// features on a v1 frame, bits out of range, ...).
    void validate() const;
};

/// A device's last-acked prior: what v2 deltas are resolved against. The
/// pointed-to prior must outlive the encode/decode call.
struct PriorBase {
    const dp::MixturePrior* prior = nullptr;
    std::uint64_t version = 0;
};

/// Encodes under `options`. `base` is required when options.delta is set
/// (and must match the prior's dimension); ignored otherwise. Throws
/// std::invalid_argument on a prior no decoder accepts (K x d x d > 2^22).
std::vector<std::uint8_t> encode_prior(const dp::MixturePrior& prior,
                                       const EncodingOptions& options = {},
                                       const PriorBase* base = nullptr);

/// Decodes either version. `base` is required to resolve kFlagDelta
/// payloads: its version must equal the frame's base_version and its
/// dimension the frame's — checked, like all header geometry, before the
/// first atom.
dp::MixturePrior decode_prior(const std::vector<std::uint8_t>& buffer,
                              const PriorBase* base = nullptr);

/// Exact size in bytes that encode_prior would produce for non-delta
/// options. For delta options this is the worst case (every atom present);
/// the actual encode shrinks by (per_atom_payload - 1) bytes per atom that
/// is bit-identical to its base.
std::size_t encoded_size(std::size_t num_components, std::size_t dim,
                         const EncodingOptions& options);

}  // namespace drel::edgesim
