#include "ffs/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace sb::ffs {

namespace {

// Reflected CRC32C polynomial (0x1EDC6F41 bit-reversed).
constexpr std::uint32_t kPoly = 0x82F63B78u;

struct Tables {
    // t[0] is the classic byte-at-a-time table; t[1..7] extend it so eight
    // input bytes fold in one round (slicing-by-8).
    std::array<std::array<std::uint32_t, 256>, 8> t{};

    constexpr Tables() {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) {
                c = (c & 1u) ? (c >> 1) ^ kPoly : c >> 1;
            }
            t[0][i] = c;
        }
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = t[0][i];
            for (std::size_t s = 1; s < 8; ++s) {
                c = t[0][c & 0xFFu] ^ (c >> 8);
                t[s][i] = c;
            }
        }
    }
};

constexpr Tables kTables{};

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes exactly this polynomial, eight bytes
// per instruction.  Compiled for SSE4.2 alone, so the rest of the build
// keeps its baseline ISA; only called after the CPU check below.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_update_sse42(
    std::uint32_t state, std::span<const std::byte> data) noexcept {
    const std::byte* p = data.data();
    std::size_t n = data.size();
    std::uint32_t c = state;
    while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
        c = _mm_crc32_u8(c, std::to_integer<std::uint8_t>(*p++));
        --n;
    }
    std::uint64_t c64 = c;
    while (n >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof word);
        c64 = _mm_crc32_u64(c64, word);
        p += 8;
        n -= 8;
    }
    c = static_cast<std::uint32_t>(c64);
    while (n--) c = _mm_crc32_u8(c, std::to_integer<std::uint8_t>(*p++));
    return c;
}
#endif

using UpdateFn = std::uint32_t (*)(std::uint32_t,
                                   std::span<const std::byte>) noexcept;

UpdateFn select_update() noexcept {
#if defined(__x86_64__)
    __builtin_cpu_init();  // may run before the runtime's own CPU probe
    if (__builtin_cpu_supports("sse4.2")) return &crc32c_update_sse42;
#endif
    return &crc32c_update_portable;
}

/// Chosen once, on first use (a function-local static, so a checksum taken
/// during static initialisation still dispatches correctly).
UpdateFn update_fn() noexcept {
    static const UpdateFn fn = select_update();
    return fn;
}

}  // namespace

std::uint32_t crc32c_update_portable(std::uint32_t state,
                                     std::span<const std::byte> data) noexcept {
    const auto& t = kTables.t;
    const std::byte* p = data.data();
    std::size_t n = data.size();
    std::uint32_t c = state;
    while (n >= 8) {
        // Little-endian fold of (crc ^ first four bytes) + next four bytes.
        const std::uint32_t lo =
            c ^ (std::uint32_t(std::to_integer<std::uint8_t>(p[0])) |
                 std::uint32_t(std::to_integer<std::uint8_t>(p[1])) << 8 |
                 std::uint32_t(std::to_integer<std::uint8_t>(p[2])) << 16 |
                 std::uint32_t(std::to_integer<std::uint8_t>(p[3])) << 24);
        const std::uint32_t hi =
            std::uint32_t(std::to_integer<std::uint8_t>(p[4])) |
            std::uint32_t(std::to_integer<std::uint8_t>(p[5])) << 8 |
            std::uint32_t(std::to_integer<std::uint8_t>(p[6])) << 16 |
            std::uint32_t(std::to_integer<std::uint8_t>(p[7])) << 24;
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
        p += 8;
        n -= 8;
    }
    while (n--) {
        c = t[0][(c ^ std::to_integer<std::uint8_t>(*p++)) & 0xFFu] ^ (c >> 8);
    }
    return c;
}

std::uint32_t crc32c_update(std::uint32_t state,
                            std::span<const std::byte> data) noexcept {
    return update_fn()(state, data);
}

bool crc32c_uses_hardware() noexcept {
    return update_fn() != &crc32c_update_portable;
}

}  // namespace sb::ffs
