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

    double get_scalar(bool as_float32) {
        return as_float32 ? static_cast<double>(get<float>()) : get<double>();
    }

    /// Bulk read for the float64 path; value-identical to `count`
    /// get<double>() calls.
    void get_doubles(double* dst, std::size_t count) {
        const std::size_t bytes = count * sizeof(double);
        if (offset_ + bytes > buffer_.size()) {
            throw std::invalid_argument("decode_prior: truncated buffer");
        }
        std::memcpy(dst, buffer_.data() + offset_, bytes);
        offset_ += bytes;
    }

    const std::uint8_t* get_span(std::size_t count) {
        if (offset_ + count > buffer_.size()) {
            throw std::invalid_argument("decode_prior: truncated buffer");
        }
        const std::uint8_t* span = buffer_.data() + offset_;
        offset_ += count;
        return span;
    }

    std::size_t remaining() const noexcept { return buffer_.size() - offset_; }
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
        if (options.quantized) {
            write_quantized_section(w, section, options.quantization_bits);
        } else {
            for (const double v : section) w.put_scalar(v, options.use_float32);
        }

        gather_cov_entries(atom.covariance(), options.diagonal_only, section);
        if (residual) {
            std::vector<double> base_section;
            gather_cov_entries(base->prior->atom(k).covariance(), options.diagonal_only,
                               base_section);
            for (std::size_t i = 0; i < section.size(); ++i) section[i] -= base_section[i];
        }
        if (options.quantized) {
            write_quantized_section(w, section, options.quantization_bits);
        } else {
            for (const double v : section) w.put_scalar(v, options.use_float32);
        }
    }
    if (w.offset() != buffer.size()) {
        throw std::logic_error("encode_prior: frame size mismatch");
    }
    count_encode(buffer.size());
    return buffer;
}

std::uint32_t registered_flags(std::uint32_t version) {
    switch (version) {
        case kWireV1:
            return kFlagFloat32 | kFlagDiagonalOnly;
        case kWireV2:
            return kFlagFloat32 | kFlagDiagonalOnly | kFlagQuantized | kFlagDelta;
        default:
            throw std::invalid_argument("registered_flags: unsupported version " +
                                        std::to_string(version));
    }
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

std::uint32_t negotiate_wire_version(std::uint32_t server_max, std::uint32_t device_max) {
    // A peer advertising a FUTURE version is fine — it also speaks ours, so
    // the wire clamps to what both sides implement. A peer advertising 0
    // speaks nothing we can emit.
    const std::uint32_t version = std::min({server_max, device_max, kMaxWireVersion});
    if (version < kWireV1) {
        throw std::invalid_argument("negotiate_wire_version: no common version");
    }
    return version;
}

EncodingOptions negotiated_options(EncodingOptions server_prefs,
                                   std::uint32_t device_max) {
    const std::uint32_t version = negotiate_wire_version(server_prefs.version, device_max);
    server_prefs.version = version;
    if (version < kWireV2) {
        server_prefs.quantized = false;
        server_prefs.delta = false;
    }
    server_prefs.validate();
    return server_prefs;
}

std::size_t encoded_size(std::size_t num_components, std::size_t dim,
                         const EncodingOptions& options) {
    const std::size_t per_atom =
        (options.delta ? 1 : 0) /*presence*/ + atom_payload_bytes(dim, options);
    return header_bytes(options) + num_components * per_atom;
}

dp::MixturePrior decode_prior(const std::vector<std::uint8_t>& buffer,
                              const PriorBase* base, std::uint32_t max_version,
                              WireInfo* info) {
    DREL_PROFILE_SCOPE("transfer.decode");
    if (buffer.size() < 8 || std::memcmp(buffer.data(), kMagic, 8) != 0) {
        throw std::invalid_argument("decode_prior: bad magic");
    }
    Reader r(buffer);
    for (int i = 0; i < 8; ++i) (void)r.get<std::uint8_t>();  // skip magic
    const std::uint32_t version = r.get<std::uint32_t>();
    if (version != kWireV1 && version != kWireV2) {
        throw std::invalid_argument("decode_prior: unsupported version " +
                                    std::to_string(version));
    }
    if (version > max_version) {
        throw std::invalid_argument("decode_prior: version " + std::to_string(version) +
                                    " exceeds negotiated maximum " +
                                    std::to_string(max_version));
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
    if (num_components == 0 || num_components > 100000 || dim == 0 || dim > 100000) {
        throw std::invalid_argument("decode_prior: implausible header counts");
    }

    std::uint64_t prior_version = 0;
    std::size_t base_components = 0;
    int quant_bits = 0;
    if (version >= kWireV2) {
        prior_version = r.get<std::uint64_t>();
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
        const bool residual = quantized && delta && k < base_components;
        // Read the mean BEFORE constructing the dim x dim covariance: a
        // corrupted header dim must fail the bounds check on the mean read,
        // not zero-fill a gigabyte-scale matrix first.
        linalg::Vector mean(dim);
        if (quantized) {
            read_quantized_section(r, section, dim, quant_bits);
            for (std::uint32_t i = 0; i < dim; ++i) mean[i] = section[i];
            if (residual) {
                const linalg::Vector& base_mean = base->prior->atom(k).mean();
                for (std::uint32_t i = 0; i < dim; ++i) mean[i] += base_mean[i];
            }
        } else if (float32) {
            for (std::uint32_t i = 0; i < dim; ++i) mean[i] = r.get_scalar(true);
        } else {
            r.get_doubles(mean.data(), dim);
        }
        linalg::Matrix cov(dim, dim);
        if (quantized) {
            const std::size_t entries = cov_entry_count(dim, diagonal);
            read_quantized_section(r, section, entries, quant_bits);
            if (residual) {
                std::vector<double> base_section;
                gather_cov_entries(base->prior->atom(k).covariance(), diagonal,
                                   base_section);
                for (std::size_t i = 0; i < entries; ++i) section[i] += base_section[i];
            }
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
        } else if (float32) {
            if (diagonal) {
                for (std::uint32_t i = 0; i < dim; ++i) cov(i, i) = r.get_scalar(true);
            } else {
                for (std::uint32_t row = 0; row < dim; ++row) {
                    for (std::uint32_t col = 0; col <= row; ++col) {
                        const double v = r.get_scalar(true);
                        cov(row, col) = v;
                        cov(col, row) = v;
                    }
                }
            }
        } else {
            if (diagonal) {
                for (std::uint32_t i = 0; i < dim; ++i) cov(i, i) = r.get<double>();
            } else {
                // Read each lower-triangle row prefix straight into the
                // row-major storage, then mirror the strict lower part.
                for (std::uint32_t row = 0; row < dim; ++row) {
                    r.get_doubles(cov.row_data(row), row + 1);
                    for (std::uint32_t col = 0; col < row; ++col) {
                        cov(col, row) = cov(row, col);
                    }
                }
            }
        }
        atoms.emplace_back(std::move(mean), std::move(cov));
    }
    if (!r.exhausted()) {
        throw std::invalid_argument("decode_prior: trailing bytes");
    }
    if (info != nullptr) {
        info->version = version;
        info->flags = flags;
        info->prior_version = prior_version;
        info->num_components = num_components;
        info->dim = dim;
    }
    static obs::Counter& decodes = obs::Registry::global().counter("transfer.decodes");
    decodes.add(1);
    return dp::MixturePrior(std::move(weights), std::move(atoms));
}

std::optional<dp::MixturePrior> try_decode_prior(const std::vector<std::uint8_t>& buffer,
                                                 const PriorBase* base,
                                                 std::uint32_t max_version) {
    try {
        return decode_prior(buffer, base, max_version);
    } catch (const std::exception&) {
        static obs::Counter& rejected =
            obs::Registry::global().counter("transfer.decode_rejected");
        rejected.add(1);
        return std::nullopt;
    }
}

}  // namespace drel::edgesim
