// Size-classed, generation-aware recycling pool for step buffers.
//
// The publish hot path allocates one (or more) payload buffers per component
// per step, hands them to the transport, and frees them when every reader
// rank has released the step.  In steady state the sizes repeat step after
// step, so those allocations — and the page faults of fresh large blocks —
// are pure tax.  The pool closes the loop: `acquire(n)` hands out a
// `std::shared_ptr<std::vector<std::byte>>` whose deleter returns the
// storage to a per-size-class free list instead of the allocator, and the
// next `acquire` of that class reuses it.  Because ownership is the ordinary
// shared_ptr refcount, a buffer can never be recycled while *anything* still
// references it — a step retained for SB_FAULT replay pins its payloads
// exactly like a live reader does, so a retired buffer cannot alias a
// replayable step by construction.
//
// A/B gate: the SB_POOL env var ("off"/"0"/"false" disables; anything else,
// or unset, enables), and set_enabled() overrides it programmatically
// (benches toggle legs this way).  Disabled, acquire() is a
// plain allocation and retired buffers free normally — byte-for-byte the
// seed's allocation behaviour.
//
// Generations: bump_generation() invalidates every buffer currently
// outstanding (they free instead of recycling when dropped) and discards the
// free lists — tests and benches isolate runs this way without waiting for
// stragglers.
//
// Under SB_CHECK the pool poisons recycled storage and registers the range
// with sb::check's lifetime quarantine (check/lifetime.hpp), so a read
// through a stale span into a retired buffer is reported as use-after-retire
// instead of silently aliasing the next step's data.
//
// Observability (docs/OBSERVABILITY.md): pool.hits / pool.misses /
// pool.retires counters, pool.bytes_recycled / pool.bytes_allocated byte
// counters, and pool.free_bytes / pool.outstanding_bytes gauges whose
// high-water marks bound the pool's memory footprint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace sb::obs {
class Counter;
class Gauge;
}  // namespace sb::obs

namespace sb::util {

/// A pooled byte buffer: an ordinary shared vector whose storage returns to
/// the pool when the last reference drops.  Converts implicitly to the
/// transport's `std::shared_ptr<const std::vector<std::byte>>`.
using PooledBytes = std::shared_ptr<std::vector<std::byte>>;

/// Whether acquire() recycles at all.  Initialized from the SB_POOL env var;
/// set_enabled() overrides (benches A/B legs, smartblock_run --pool=).
bool pool_enabled() noexcept;
void set_pool_enabled(bool on) noexcept;

class BufferPool {
public:
    /// The process-wide pool every publish path draws from.
    static BufferPool& global();

    BufferPool();
    BufferPool(const BufferPool&) = delete;
    BufferPool& operator=(const BufferPool&) = delete;

    /// A buffer of exactly `n` bytes (capacity rounded up to the size
    /// class).  Contents are unspecified — callers fill the whole buffer.
    /// Never null; with the pool disabled this is a plain allocation.
    PooledBytes acquire(std::size_t n);

    /// Invalidates every outstanding buffer (they free on retire instead of
    /// recycling) and drops the free lists.
    void bump_generation();

    /// Drops the free lists (keeps the current generation).
    void trim();

    // ---- introspection (tests, benches) ------------------------------------
    std::size_t free_buffers() const;
    std::size_t free_bytes() const;
    std::uint64_t generation() const;

private:
    struct Shelf {
        std::vector<std::vector<std::byte>> buffers;  // each sized == capacity
    };

    void retire(std::vector<std::byte>&& storage, std::uint64_t gen) noexcept;
    void drop_free_locked();

    /// Deleter on every handed-out buffer: routes the storage back here.
    struct Retire {
        BufferPool* pool = nullptr;
        std::uint64_t gen = 0;
        void operator()(std::vector<std::byte>* v) const noexcept;
    };

    mutable std::mutex mu_;
    std::vector<Shelf> shelves_;  // indexed by size-class exponent
    std::uint64_t generation_ = 1;
    std::size_t free_bytes_ = 0;
    std::size_t outstanding_bytes_ = 0;

    // Resolved once; the registry guarantees pointer stability.
    obs::Counter* hits_ = nullptr;
    obs::Counter* misses_ = nullptr;
    obs::Counter* retires_ = nullptr;
    obs::Counter* bytes_recycled_ = nullptr;
    obs::Counter* bytes_allocated_ = nullptr;
    obs::Gauge* free_bytes_gauge_ = nullptr;
    obs::Gauge* outstanding_gauge_ = nullptr;
};

/// Shorthand for BufferPool::global().acquire(n) — the publish paths' one
/// call site per buffer.
inline PooledBytes acquire_bytes(std::size_t n) {
    return BufferPool::global().acquire(n);
}

}  // namespace sb::util
