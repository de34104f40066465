// Wire encoding of FFS records.
//
// Format (all integers little-endian):
//   magic  "FFS1"
//   name   : u32 length + bytes
//   nfields: u32
//   field  : name (u32+bytes), kind u8, ndim u8, dims u64 x ndim, payload
//     numeric payload: element_count * kind_size raw bytes
//     string  payload: element_count x (u32 length + bytes)
//
// The schema travels with every packet, so a decoder needs no out-of-band
// type registry — the property that makes SmartBlock components generic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "ffs/type.hpp"

namespace sb::ffs {

using Bytes = std::vector<std::byte>;

/// Exact wire size of a record — what encode() produces.  Callers that
/// stage packets in pooled buffers size them with this.
std::size_t encoded_size(const Record& rec);

/// Serializes a record with its embedded schema.
Bytes encode(const Record& rec);

/// encode() into a caller-provided buffer: `out` is cleared and refilled,
/// reusing its capacity.  The packet-recycling form of encode for hot loops
/// (future TCP backend).
void encode_into(const Record& rec, Bytes& out);

/// Scatter-gather encoding: a small header buffer plus an iovec-style
/// segment list.  Large numeric payloads are *not* copied — their segments
/// alias the record's payload storage (which must outlive the result), and
/// header segments alias `header`.  Concatenating `segments` in order
/// yields exactly encode(rec); `total` is that concatenated size.  This is
/// how the publish path serializes a step without ever memcpy'ing the bulk
/// data.
struct EncodedSegments {
    Bytes header;
    std::vector<std::span<const std::byte>> segments;
    std::size_t total = 0;
};
EncodedSegments encode_segments(const Record& rec);

/// Reconstructs a record (schema and values) from the wire.
/// Throws std::runtime_error on truncated or corrupt input.
Record decode(std::span<const std::byte> wire);

// ---- low-level byte stream helpers (exposed for tests/benches) ----------

class ByteWriter {
public:
    ByteWriter() = default;
    /// Adopts `storage` as the output buffer: cleared, capacity kept.  With
    /// a recycled packet buffer, a steady-state encode allocates nothing.
    explicit ByteWriter(Bytes storage) : buf_(std::move(storage)) { buf_.clear(); }

    /// Capacity hint: grows the buffer's capacity to `total` bytes so a
    /// caller that knows the final packet size (encode does) pays one
    /// allocation instead of a doubling cascade.
    void reserve(std::size_t total) { buf_.reserve(total); }

    // The scalar emitters are noexcept by contract: encode paths reserve
    // the exact packet size first, so these appends never reallocate (and
    // allocation failure is terminal anyway).
    void u8(std::uint8_t v) noexcept;
    void u32(std::uint32_t v) noexcept;
    void u64(std::uint64_t v) noexcept;
    void str(std::string_view s);
    void bytes(std::span<const std::byte> b);

    Bytes take() { return std::move(buf_); }
    std::size_t size() const noexcept { return buf_.size(); }

private:
    Bytes buf_;
};

class ByteReader {
public:
    explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::string str();
    Bytes bytes(std::size_t n);

    /// The next `n` bytes without copying; the span aliases the wire buffer
    /// handed to the constructor and is valid for that buffer's lifetime.
    std::span<const std::byte> view(std::size_t n);

    std::size_t remaining() const noexcept { return data_.size() - pos_; }
    bool done() const noexcept { return pos_ == data_.size(); }

private:
    void need(std::size_t n) const;
    std::span<const std::byte> data_;
    std::size_t pos_ = 0;
};

}  // namespace sb::ffs
