// The benchmark's own span recorder (traced runs only).
//
// Spans wrap the public calls the benchmark makes into each layer: name,
// start, end, the enclosing span, and the step id shared by every span of
// one step.  They are kept in memory and written as one Chrome trace file
// when the run ends.  Recording is off unless the run is traced; then a
// ScopedSpan costs one relaxed load.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

struct Span {
    std::string name;
    double t0 = 0.0;  // sb::obs::steady_seconds
    double t1 = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = none
    std::int64_t step = -1;    // -1 = not tied to a step
    std::uint64_t thread = 0;
};

namespace tracer {

void set_enabled(bool on);
bool enabled();

/// Every span recorded since the last take(), in completion order.
std::vector<Span> take();

/// Writes `spans` as Chrome trace events ("X" slices; args carry id,
/// parent and step).
void write_chrome(const std::string& path, const std::vector<Span>& spans);

/// Self time per span name: each span's duration minus the part its
/// direct children cover, in seconds, in completion order.
std::map<std::string, std::vector<double>> self_times(const std::vector<Span>& spans);

}  // namespace tracer

/// Records one span for its scope when tracing is on; nests per thread.
class ScopedSpan {
public:
    explicit ScopedSpan(const char* name, std::int64_t step = -1);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    const char* name_;
    std::int64_t step_;
    double t0_ = 0.0;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
};

}  // namespace pb
