// sb::fault — deterministic, seedable fault injection.
//
// Long-running in situ pipelines fail component-by-component, not as a
// whole; reproducing the paper's deployment scenario therefore needs a way
// to *cause* those failures on demand.  This registry arms named injection
// points threaded through the runtime — flexpath publish/acquire, durable
// log reload, ffs decode, component run/step bodies — and fires a configured
// action (throw, delay, or crash-the-rank) at the Nth hit or with
// probability p.  Everything is deterministic under a fixed seed, so a
// chaos test replays the exact same failure schedule every run.
//
// Like SB_METRICS / SB_CHECK, the subsystem is always compiled in and costs
// one relaxed atomic load per hit() while nothing is armed.  Arm via the
// SB_FAULT environment variable or the programmatic API:
//
//   SB_FAULT="seed=7; flexpath.acquire:velos.fp=throw@5"
//   SB_FAULT="component.step=crash%0.01x3; ffs.decode=delay:20"
//
// Grammar: entries separated by ';' or ','.  "seed=N" reseeds the
// generators; every other entry is "<point>[:<scope>]=<action>" where
// action is "throw", "crash", "delay:<ms>", or "torn:<bytes>" (a disk
// fault: the instrumented write lands short by that many bytes, then the
// rank crashes — only write-path points honor it), followed by optional
// modifiers "@N" (fire on the Nth matching hit, 1-based), "%p" (fire with
// probability p per hit), and "xM" (fire at most M times; default 1,
// 0 = unlimited).  A point ending in '*' prefix-matches the full
// "point:scope" string.  See docs/RESILIENCE.md for the point reference.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sb::fault {

namespace detail {
extern std::atomic<int> g_armed;  // number of armed specs, process-wide
}

/// What an armed injection point does when it fires.
enum class Action {
    Throw,  // throw InjectedFault out of the instrumented call
    Delay,  // sleep delay_ms, then continue normally
    Crash,  // throw InjectedCrash — models the rank dying mid-operation
    Torn,   // throw TornWrite — the write lands torn_bytes short, then crashes
};

/// Thrown by Action::Throw: an injected, recoverable component failure.
class InjectedFault : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Thrown by Action::Crash: models a rank crash.  The in-process MPI
/// stand-in has no real process to kill, so a crash is an exception the
/// component cannot have handled — the supervisor treats it exactly like a
/// vanished rank (see core/workflow.hpp).
class InjectedCrash : public InjectedFault {
public:
    using InjectedFault::InjectedFault;
};

/// Thrown by Action::Torn: models a power cut mid-write.  A write-path
/// injection point that understands torn writes catches this, performs the
/// write `bytes` short of complete, and rethrows as InjectedCrash (the torn
/// data is on disk; the rank is gone).  Points that don't understand torn
/// writes let it propagate — it is still an InjectedFault.
class TornWrite : public InjectedFault {
public:
    TornWrite(const std::string& what, std::uint64_t bytes)
        : InjectedFault(what), bytes_(bytes) {}
    /// How many trailing bytes of the instrumented write to drop.
    std::uint64_t bytes() const noexcept { return bytes_; }

private:
    std::uint64_t bytes_;
};

/// One armed injection, as parsed from SB_FAULT or built programmatically.
struct FaultSpec {
    /// "point", "point:scope", or a trailing-'*' prefix of "point:scope".
    std::string point;
    Action action = Action::Throw;
    /// Fire on exactly the Nth matching hit (1-based).  0 = every hit is
    /// eligible (subject to `probability`).
    std::uint64_t at_hit = 0;
    /// Fire with this per-hit probability; negative = disabled (fire on
    /// every eligible hit).  Ignored when at_hit is set.
    double probability = -1.0;
    double delay_ms = 0.0;  // Action::Delay sleep
    std::uint64_t torn_bytes = 0;  // Action::Torn shortfall
    /// Stop firing after this many fires; 0 = unlimited.
    std::uint64_t max_fires = 1;
};

/// Parses one SB_FAULT entry ("point=throw@3"); throws std::invalid_argument
/// on malformed input.
FaultSpec parse_spec(const std::string& entry);

/// Process-wide registry of armed faults.  Thread-safe.
class Registry {
public:
    static Registry& global();

    void arm(FaultSpec spec);

    /// Parses an SB_FAULT-style string ("seed=N; point=action; ...") and
    /// arms every entry.  nullptr/empty is a no-op.  Returns the number of
    /// specs armed.  Throws std::invalid_argument on malformed entries.
    std::size_t arm_from_env(const char* value);

    /// Disarms everything and resets hit/fire counts (tests isolate cases
    /// this way).  Does not reset the seed.
    void disarm_all();

    /// Reseeds the per-spec generators (probability mode).  Deterministic:
    /// the same seed and hit sequence fire the same faults.
    void set_seed(std::uint64_t seed);

    /// Matching hits / fires recorded against specs armed with exactly this
    /// point string.
    std::uint64_t hits(std::string_view point) const;
    std::uint64_t fires(std::string_view point) const;

    bool any_armed() const noexcept;

    /// Slow path of hit(); call through hit() only.
    void on_hit(std::string_view point, std::string_view scope);

private:
    Registry() = default;
    struct Armed;
    mutable std::mutex mu_;
    std::vector<Armed>* specs_ = nullptr;  // defined in fault.cpp
    std::uint64_t seed_ = 0x5eedf001u;
    std::vector<Armed>& specs_locked();
};

/// An injection point.  `scope` narrows the point to one instance (a stream
/// or component name): a spec armed as "point" matches every scope, one
/// armed as "point:scope" matches that scope only.  Free when nothing is
/// armed (one relaxed atomic load).
inline void hit(std::string_view point, std::string_view scope = {}) {
    if (detail::g_armed.load(std::memory_order_relaxed) == 0) return;
    Registry::global().on_hit(point, scope);
}

}  // namespace sb::fault
