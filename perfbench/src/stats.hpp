// Summary statistics the benchmark reports: medians, the tail rule, and
// ratios that carry their base.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace pb {

/// Median of `v` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty sample.
inline double median(std::vector<double> v) {
    if (v.empty()) throw std::invalid_argument("median of an empty sample");
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1) return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    return (lo + hi) / 2.0;
}

/// The tail of a latency sample: the highest percentile that still has at
/// least kBeyond samples above it.  With n samples that is the value of
/// rank n - kBeyond (1-based, ascending), i.e. percentile 100 (n - 10) / n.
struct Tail {
    static constexpr std::size_t kBeyond = 10;
    double value = 0.0;
    double percentile = 0.0;
    std::size_t n = 0;
};

/// Throws std::invalid_argument unless `v` has more than Tail::kBeyond
/// samples (the rule needs at least one sample at or below the tail).
inline Tail tail(std::vector<double> v) {
    if (v.size() <= Tail::kBeyond) {
        throw std::invalid_argument("tail needs more than 10 samples");
    }
    std::sort(v.begin(), v.end());
    const std::size_t rank = v.size() - Tail::kBeyond;  // 1-based
    return Tail{v[rank - 1], 100.0 * static_cast<double>(rank) / static_cast<double>(v.size()),
                v.size()};
}

/// A ratio printed with its base: `part` of `base` events.
struct Ratio {
    double part = 0.0;
    double base = 0.0;
    /// part / base, or 0 when nothing was counted.
    double value() const noexcept { return base > 0.0 ? part / base : 0.0; }
};

}  // namespace pb
