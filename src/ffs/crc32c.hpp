// CRC32C (Castagnoli) checksums for the durable step log.
//
// The crash-consistent step log (src/durable) frames every record with two
// checksums: one over the frame header + metadata, one over the bulk
// payload.  CRC32C is the polynomial used by iSCSI, ext4 and Btrfs for
// exactly this job — strong enough to catch torn writes and
// bit rot, cheap enough to run inline with the scatter-gather encode.
//
// crc32c_update dispatches once, at first use, on what the CPU offers: on
// x86-64 with SSE4.2 it runs the crc32 instruction (eight bytes per
// instruction, ~4x the table walk); everywhere else it runs the portable
// slicing-by-8 table walk, crc32c_update_portable, which is also the test
// oracle.  Only that one function is compiled for SSE4.2, so the build needs
// no ISA flag and the binary still runs on a CPU without it.  Both give the
// same value for every input.  The checksum is streamable, so the log can
// checksum an iovec-style segment list without concatenating it first:
//
//   std::uint32_t c = crc32c_init();
//   for (span segment : segments) c = crc32c_update(c, segment);
//   std::uint32_t crc = crc32c_final(c);
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace sb::ffs {

/// Starting state for a streaming CRC32C computation.
inline std::uint32_t crc32c_init() noexcept { return 0xFFFFFFFFu; }

/// Folds `data` into the running state (chain across segments).
std::uint32_t crc32c_update(std::uint32_t state,
                            std::span<const std::byte> data) noexcept;

/// The slicing-by-8 table walk: crc32c_update's fallback and its oracle.
std::uint32_t crc32c_update_portable(std::uint32_t state,
                                     std::span<const std::byte> data) noexcept;

/// Whether crc32c_update runs the SSE4.2 instruction on this CPU.
bool crc32c_uses_hardware() noexcept;

/// Finalizes the running state into the checksum value.
inline std::uint32_t crc32c_final(std::uint32_t state) noexcept {
    return state ^ 0xFFFFFFFFu;
}

/// One-shot convenience: the CRC32C of `data`.
inline std::uint32_t crc32c(std::span<const std::byte> data) noexcept {
    return crc32c_final(crc32c_update(crc32c_init(), data));
}

}  // namespace sb::ffs
