#include "edgesim/transfer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace drel::edgesim {
namespace {

constexpr char kMagic[8] = {'D', 'R', 'E', 'L', 'P', 'R', 'I', 'O'};
constexpr int kMinQuantBits = 2;
constexpr int kMaxQuantBits = 16;
/// Cap on the K x d x d covariance entries a frame may describe: a decode
/// allocates dense d x d covariances, diagonal-only frames included, so a
/// header alone could otherwise demand gigabytes. 2^22 doubles (32 MiB) is
/// orders of magnitude above any prior the system ships.
constexpr std::uint64_t kMaxCovarianceEntries = std::uint64_t{1} << 22;

/// Throws unless 1 <= K, 1 <= d and K * d * d <= kMaxCovarianceEntries.
void check_geometry(std::uint64_t num_components, std::uint64_t dim, const char* who) {
    if (num_components == 0 || dim == 0 || dim > kMaxCovarianceEntries / dim ||
        num_components > kMaxCovarianceEntries / (dim * dim)) {
        throw std::invalid_argument(std::string(who) + ": implausible header counts");
    }
}

/// Bits a decoder of `version` accepts: the single source of truth for
/// flag validation.
std::uint32_t registered_flags(std::uint32_t version) {
    return version == kWireV1 ? kFlagFloat32 | kFlagDiagonalOnly
                              : kFlagFloat32 | kFlagDiagonalOnly | kFlagQuantized | kFlagDelta;
}

// Cursor writer over a buffer pre-sized to the exact encode size: plain
// memcpy at an advancing offset, no per-value capacity checks or insert
// bookkeeping. encode_prior asserts the cursor lands exactly on the end.
class Writer {
 public:
    explicit Writer(std::vector<std::uint8_t>& buffer) : buffer_(buffer) {}

    template <typename T>
    void put(T value) {
        std::memcpy(buffer_.data() + offset_, &value, sizeof(T));
        offset_ += sizeof(T);
    }

    void put_scalar(double value, bool as_float32) {
        if (as_float32) {
            put(static_cast<float>(value));
        } else {
            put(value);
        }
    }

    void put_bytes(const void* src, std::size_t count) {
        std::memcpy(buffer_.data() + offset_, src, count);
        offset_ += count;
    }

    std::size_t offset() const noexcept { return offset_; }

 private:
    std::vector<std::uint8_t>& buffer_;
    std::size_t offset_ = 0;
};

class Reader {
 public:
    explicit Reader(const std::vector<std::uint8_t>& buffer) : buffer_(buffer) {}

    template <typename T>
    T get() {
        if (offset_ + sizeof(T) > buffer_.size()) {
            throw std::invalid_argument("decode_prior: truncated buffer");
        }
        T value;
        std::memcpy(&value, buffer_.data() + offset_, sizeof(T));
        offset_ += sizeof(T);
        return value;
    }

    const std::uint8_t* get_span(std::size_t count) {
        if (count > buffer_.size() - offset_) {
            throw std::invalid_argument("decode_prior: truncated buffer");
        }
        const std::uint8_t* span = buffer_.data() + offset_;
        offset_ += count;
        return span;
    }

    bool exhausted() const noexcept { return offset_ == buffer_.size(); }

 private:
    const std::vector<std::uint8_t>& buffer_;
    std::size_t offset_ = 0;
};

std::size_t packed_bytes(std::size_t count, int bits) {
    return (count * static_cast<std::size_t>(bits) + 7) / 8;
}

/// A quantized section: min f64 | max f64 | bit-packed codes, LSB first.
void write_quantized_section(Writer& w, const std::vector<double>& values, int bits) {
    double lo = values.empty() ? 0.0 : values.front();
    double hi = lo;
    for (const double v : values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    w.put(lo);
    w.put(hi);
    const double span = hi - lo;
    const std::uint32_t levels = (1u << bits) - 1u;
    std::uint64_t acc = 0;
    int acc_bits = 0;
    for (const double v : values) {
        const std::uint64_t q =
            span > 0.0
                ? static_cast<std::uint64_t>(std::llround((v - lo) / span *
                                                          static_cast<double>(levels)))
                : 0;
        acc |= q << acc_bits;
        acc_bits += bits;
        while (acc_bits >= 8) {
            w.put(static_cast<std::uint8_t>(acc & 0xff));
            acc >>= 8;
            acc_bits -= 8;
        }
    }
    if (acc_bits > 0) w.put(static_cast<std::uint8_t>(acc & 0xff));
}

void read_quantized_section(Reader& r, std::vector<double>& out, std::size_t count,
                            int bits) {
    const double lo = r.get<double>();
    const double hi = r.get<double>();
    if (!std::isfinite(lo) || !std::isfinite(hi) || hi < lo) {
        throw std::invalid_argument("decode_prior: malformed quantization range");
    }
    const std::uint8_t* packed = r.get_span(packed_bytes(count, bits));
    const double span = hi - lo;
    const double levels = static_cast<double>((1u << bits) - 1u);
    out.resize(count);
    std::uint64_t acc = 0;
    int acc_bits = 0;
    std::size_t byte = 0;
    const std::uint64_t mask = (1ull << bits) - 1ull;
    for (std::size_t i = 0; i < count; ++i) {
        while (acc_bits < bits) {
            acc |= static_cast<std::uint64_t>(packed[byte++]) << acc_bits;
            acc_bits += 8;
        }
        const std::uint64_t q = acc & mask;
        acc >>= bits;
        acc_bits -= bits;
        out[i] = span > 0.0 ? lo + static_cast<double>(q) / levels * span : lo;
    }
}

/// One value section in the frame's format: bit-packed when quantized,
/// else one scalar per value.
void write_section(Writer& w, const std::vector<double>& values,
                   const EncodingOptions& options) {
    if (options.quantized) {
        write_quantized_section(w, values, options.quantization_bits);
    } else {
        for (const double v : values) w.put_scalar(v, options.use_float32);
    }
}

/// The inverse of write_section: `quant_bits` > 0 for a quantized frame.
/// The bytes are bounds-checked before `out` grows.
void read_section(Reader& r, std::vector<double>& out, std::size_t count, int quant_bits,
                  bool float32) {
    if (quant_bits > 0) {
        read_quantized_section(r, out, count, quant_bits);
        return;
    }
    const std::size_t width = float32 ? sizeof(float) : sizeof(double);
    const std::uint8_t* bytes = r.get_span(count * width);
    out.resize(count);
    if (!float32) {
        std::memcpy(out.data(), bytes, count * sizeof(double));
        return;
    }
    for (std::size_t i = 0; i < count; ++i) {
        float value;
        std::memcpy(&value, bytes + i * sizeof(float), sizeof(float));
        out[i] = static_cast<double>(value);
    }
}

/// The covariance entries a frame ships for one atom, in wire order.
void gather_cov_entries(const linalg::Matrix& cov, bool diagonal,
                        std::vector<double>& out) {
    const std::size_t d = cov.rows();
    out.clear();
    if (diagonal) {
        for (std::size_t i = 0; i < d; ++i) out.push_back(cov(i, i));
    } else {
        for (std::size_t row = 0; row < d; ++row) {
            for (std::size_t col = 0; col <= row; ++col) out.push_back(cov(row, col));
        }
    }
}

std::size_t section_bytes(std::size_t count, const EncodingOptions& options) {
    if (options.quantized) {
        return 16 /*min, max*/ + packed_bytes(count, options.quantization_bits);
    }
    return count * (options.use_float32 ? 4 : 8);
}

std::size_t cov_entry_count(std::size_t dim, bool diagonal) {
    return diagonal ? dim : dim * (dim + 1) / 2;
}

/// magic | version, flags, K, dim | v2: prior_version [base_version]
/// [quant_bits]. A v1 frame is never delta or quantized (validate()).
std::size_t header_bytes(const EncodingOptions& options) {
    std::size_t size = 8 /*magic*/ + 4 * 4 /*version, flags, K, dim*/;
    if (options.version >= kWireV2) size += 8 /*prior_version*/;
    if (options.delta) size += 8 /*base_version*/;
    if (options.quantized) size += 1 /*quant_bits*/;
    return size;
}

/// One present atom: weight f64 | mean section | covariance section.
std::size_t atom_payload_bytes(std::size_t dim, const EncodingOptions& options) {
    return 8 /*weight*/ + section_bytes(dim, options) +
           section_bytes(cov_entry_count(dim, options.diagonal_only), options);
}

bool atom_equals(const dp::MixturePrior& prior, const dp::MixturePrior& base,
                 std::size_t k) {
    if (prior.weights()[k] != base.weights()[k]) return false;
    const auto& atom = prior.atom(k);
    const auto& other = base.atom(k);
    const std::size_t d = prior.dim();
    for (std::size_t i = 0; i < d; ++i) {
        if (atom.mean()[i] != other.mean()[i]) return false;
    }
    const linalg::Matrix& cov = atom.covariance();
    const linalg::Matrix& other_cov = other.covariance();
    for (std::size_t row = 0; row < d; ++row) {
        for (std::size_t col = 0; col <= row; ++col) {
            if (cov(row, col) != other_cov(row, col)) return false;
        }
    }
    return true;
}

void count_encode(std::size_t bytes) {
    static obs::Counter& encodes = obs::Registry::global().counter("transfer.encodes");
    static obs::Counter& encoded_bytes =
        obs::Registry::global().counter("transfer.encoded_bytes");
    encodes.add(1);
    encoded_bytes.add(bytes);
}

}  // namespace

std::vector<std::uint8_t> encode_prior(const dp::MixturePrior& prior,
                                       const EncodingOptions& options,
                                       const PriorBase* base) {
    DREL_PROFILE_SCOPE("transfer.encode");
    options.validate();
    const std::size_t d = prior.dim();
    const std::size_t num_components = prior.num_components();
    check_geometry(num_components, d, "encode_prior");
    if (options.delta) {
        if (base == nullptr || base->prior == nullptr) {
            throw std::invalid_argument("encode_prior: delta encoding needs a base prior");
        }
        if (base->prior->dim() != d) {
            throw std::invalid_argument("encode_prior: delta base dimension mismatch");
        }
    }
    const std::size_t base_components =
        options.delta ? base->prior->num_components() : 0;

    // First pass: which atoms are bit-identical to their base slot? That
    // fixes the exact frame size, so the Writer can assert its landing.
    std::vector<std::uint8_t> present(num_components, 1);
    if (options.delta) {
        for (std::size_t k = 0; k < std::min(num_components, base_components); ++k) {
            if (atom_equals(prior, *base->prior, k)) present[k] = 0;
        }
    }
    const std::size_t atom_bytes = atom_payload_bytes(d, options);
    std::size_t size = header_bytes(options);
    for (std::size_t k = 0; k < num_components; ++k) {
        if (options.delta && k < base_components) size += 1;  // presence byte
        if (present[k]) size += atom_bytes;
    }

    std::vector<std::uint8_t> buffer(size);
    Writer w(buffer);
    w.put_bytes(kMagic, sizeof(kMagic));
    w.put(options.version);
    std::uint32_t flags = 0;
    if (options.use_float32) flags |= kFlagFloat32;
    if (options.diagonal_only) flags |= kFlagDiagonalOnly;
    if (options.quantized) flags |= kFlagQuantized;
    if (options.delta) flags |= kFlagDelta;
    w.put(flags);
    w.put(static_cast<std::uint32_t>(num_components));
    w.put(static_cast<std::uint32_t>(d));
    if (options.version >= kWireV2) w.put(options.prior_version);
    if (options.delta) w.put(base->version);
    if (options.quantized) w.put(static_cast<std::uint8_t>(options.quantization_bits));

    std::vector<double> section;
    for (std::size_t k = 0; k < num_components; ++k) {
        if (options.delta && k < base_components) w.put(present[k]);
        if (!present[k]) continue;
        w.put(prior.weights()[k]);
        const auto& atom = prior.atom(k);
        // Residual coding only when this index exists in the base; fresh
        // components (k >= base_K) ship raw values.
        const bool residual = options.quantized && options.delta && k < base_components;

        section.assign(atom.mean().begin(), atom.mean().end());
        if (residual) {
            const linalg::Vector& base_mean = base->prior->atom(k).mean();
            for (std::size_t i = 0; i < d; ++i) section[i] -= base_mean[i];
        }
        write_section(w, section, options);

        gather_cov_entries(atom.covariance(), options.diagonal_only, section);
        if (residual) {
            std::vector<double> base_section;
            gather_cov_entries(base->prior->atom(k).covariance(), options.diagonal_only,
                               base_section);
            for (std::size_t i = 0; i < section.size(); ++i) section[i] -= base_section[i];
        }
        write_section(w, section, options);
    }
    if (w.offset() != buffer.size()) {
        throw std::logic_error("encode_prior: frame size mismatch");
    }
    count_encode(buffer.size());
    return buffer;
}

void EncodingOptions::validate() const {
    if (version != kWireV1 && version != kWireV2) {
        throw std::invalid_argument("EncodingOptions: unsupported version " +
                                    std::to_string(version));
    }
    if (version == kWireV1 && (quantized || delta)) {
        throw std::invalid_argument(
            "EncodingOptions: quantized/delta need wire version 2");
    }
    if (quantized && use_float32) {
        throw std::invalid_argument(
            "EncodingOptions: quantized and float32 are mutually exclusive");
    }
    if (quantized &&
        (quantization_bits < kMinQuantBits || quantization_bits > kMaxQuantBits)) {
        throw std::invalid_argument("EncodingOptions: quantization_bits out of range");
    }
}

std::size_t encoded_size(std::size_t num_components, std::size_t dim,
                         const EncodingOptions& options) {
    const std::size_t per_atom =
        (options.delta ? 1 : 0) /*presence*/ + atom_payload_bytes(dim, options);
    return header_bytes(options) + num_components * per_atom;
}

dp::MixturePrior decode_prior(const std::vector<std::uint8_t>& buffer, const PriorBase* base) {
    DREL_PROFILE_SCOPE("transfer.decode");
    if (buffer.size() < 8 || std::memcmp(buffer.data(), kMagic, 8) != 0) {
        throw std::invalid_argument("decode_prior: bad magic");
    }
    Reader r(buffer);
    (void)r.get_span(sizeof(kMagic));
    const std::uint32_t version = r.get<std::uint32_t>();
    if (version != kWireV1 && version != kWireV2) {
        throw std::invalid_argument("decode_prior: unsupported version " +
                                    std::to_string(version));
    }
    const std::uint32_t flags = r.get<std::uint32_t>();
    if ((flags & ~registered_flags(version)) != 0) {
        throw std::invalid_argument("decode_prior: unknown flags for version " +
                                    std::to_string(version));
    }
    const bool float32 = (flags & kFlagFloat32) != 0;
    const bool diagonal = (flags & kFlagDiagonalOnly) != 0;
    const bool quantized = (flags & kFlagQuantized) != 0;
    const bool delta = (flags & kFlagDelta) != 0;
    if (quantized && float32) {
        throw std::invalid_argument("decode_prior: invalid flag combination");
    }
    const std::uint32_t num_components = r.get<std::uint32_t>();
    const std::uint32_t dim = r.get<std::uint32_t>();
    check_geometry(num_components, dim, "decode_prior");

    std::size_t base_components = 0;
    int quant_bits = 0;
    if (version >= kWireV2) {
        (void)r.get<std::uint64_t>();  // prior_version
        if (delta) {
            // Resolve the delta's base BEFORE any atom allocation: an
            // unknown or mismatched base means the payload cannot be
            // reconstructed, however plausible its geometry looks.
            const std::uint64_t base_version = r.get<std::uint64_t>();
            if (base == nullptr || base->prior == nullptr) {
                throw std::invalid_argument(
                    "decode_prior: delta payload without a base prior");
            }
            if (base->version != base_version) {
                throw std::invalid_argument(
                    "decode_prior: delta base version mismatch (have " +
                    std::to_string(base->version) + ", payload wants " +
                    std::to_string(base_version) + ")");
            }
            if (base->prior->dim() != dim) {
                throw std::invalid_argument("decode_prior: delta base dimension mismatch");
            }
            base_components = base->prior->num_components();
        }
        if (quantized) {
            quant_bits = static_cast<int>(r.get<std::uint8_t>());
            if (quant_bits < kMinQuantBits || quant_bits > kMaxQuantBits) {
                throw std::invalid_argument("decode_prior: quantization bits out of range");
            }
        }
    }

    linalg::Vector weights(num_components);
    std::vector<stats::MultivariateNormal> atoms;
    atoms.reserve(num_components);
    std::vector<double> section;
    std::vector<double> base_section;
    for (std::uint32_t k = 0; k < num_components; ++k) {
        if (delta && k < base_components) {
            const std::uint8_t present = r.get<std::uint8_t>();
            if (present > 1) {
                throw std::invalid_argument("decode_prior: malformed presence byte");
            }
            if (present == 0) {
                // Atom unchanged since the base broadcast: reuse it.
                weights[k] = base->prior->weights()[k];
                atoms.push_back(base->prior->atom(k));
                continue;
            }
        }
        weights[k] = r.get<double>();
        if (!(weights[k] > 0.0)) {
            throw std::invalid_argument("decode_prior: non-positive weight");
        }
        // Quantized sections of an atom the base holds carry residuals.
        const stats::MultivariateNormal* base_atom =
            quantized && delta && k < base_components ? &base->prior->atom(k) : nullptr;

        read_section(r, section, dim, quant_bits, float32);
        if (base_atom != nullptr) {
            for (std::uint32_t i = 0; i < dim; ++i) section[i] += base_atom->mean()[i];
        }
        linalg::Vector mean(section);

        // Both sections are read before the d x d allocation, so a frame
        // cut short fails its bounds check without zero-filling a matrix.
        read_section(r, section, cov_entry_count(dim, diagonal), quant_bits, float32);
        if (base_atom != nullptr) {
            gather_cov_entries(base_atom->covariance(), diagonal, base_section);
            for (std::size_t i = 0; i < section.size(); ++i) section[i] += base_section[i];
        }
        linalg::Matrix cov(dim, dim);
        if (diagonal) {
            for (std::uint32_t i = 0; i < dim; ++i) cov(i, i) = section[i];
        } else {
            std::size_t at = 0;
            for (std::uint32_t row = 0; row < dim; ++row) {
                for (std::uint32_t col = 0; col <= row; ++col) {
                    cov(row, col) = section[at];
                    cov(col, row) = section[at];
                    ++at;
                }
            }
        }
        atoms.emplace_back(std::move(mean), std::move(cov));
    }
    if (!r.exhausted()) {
        throw std::invalid_argument("decode_prior: trailing bytes");
    }
    static obs::Counter& decodes = obs::Registry::global().counter("transfer.decodes");
    decodes.add(1);
    return dp::MixturePrior(std::move(weights), std::move(atoms));
}

}  // namespace drel::edgesim
