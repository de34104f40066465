#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>

namespace pb {

namespace {

constexpr unsigned kTableBits = 16;

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

double unit(std::uint64_t bits) {
    return static_cast<double>(bits >> 11) * 0x1.0p-53;  // [0, 1)
}

// Per-quantity level and spread of the GTCP stand-in's 7 columns
// (density, temperature, parallel/perpendicular pressure, energy flux,
// potential, current).
constexpr double kGtcpBase[7] = {1.0, 2.0, 2.0, 2.2, 0.0, 0.0, 0.8};
constexpr double kGtcpAmp[7] = {0.3, 0.4, 0.5, 0.6, 0.1, 0.5, 0.2};

}  // namespace

Field::Field(Kind kind, std::uint64_t seed, std::uint64_t rows, std::uint64_t cols)
    : kind_(kind), rows_(rows), cols_(cols), bank_(kBank * rows * cols) {
    // Irwin-Hall sum of four uniforms, centred and scaled to unit variance.
    const std::uint64_t salt = splitmix64(seed ^ 0x5EEDull);
    std::vector<double> table(1u << kTableBits);
    for (std::size_t k = 0; k < table.size(); ++k) {
        double s = 0.0;
        for (std::uint64_t j = 0; j < 4; ++j) s += unit(splitmix64(salt + 4 * k + j));
        table[k] = (s - 2.0) * std::sqrt(3.0);
    }
    double* out = bank_.data();
    for (std::uint64_t k = 0; k < kBank; ++k) {
        for (std::uint64_t row = 0; row < rows; ++row) {
            for (std::uint64_t col = 0; col < cols; ++col) {
                std::uint64_t h = (row * 0x9E3779B97F4A7C15ull) ^
                                  (k * 0xC2B2AE3D27D4EB4Full + col * 0x165667B19E3779F9ull + salt);
                h ^= h >> 31;
                h *= 0xBF58476D1CE4E5B9ull;
                const double n = table[h >> (64 - kTableBits)];
                double v = 0.0;
                switch (kind) {
                    case Kind::Gtcp:
                        v = kGtcpBase[col % 7] + kGtcpAmp[col % 7] * n;
                        break;
                    case Kind::Crack:
                        v = col == 0 ? static_cast<double>(row)
                                     : col == 1 ? static_cast<double>(row % 3) : n;
                        break;
                    case Kind::Md:
                        v = 5.0 * n;
                        break;
                }
                *out++ = v;
            }
        }
    }
}

std::uint64_t Field::marker_row(std::uint64_t step) const {
    const std::uint64_t slots = std::max<std::uint64_t>(rows_ / 8, 1);
    return (step * 7919 % slots) * 8 % rows_;
}

double Field::marker(std::uint64_t step, std::uint64_t col) const {
    const double grow = 1e-3 * static_cast<double>(step);
    switch (kind_) {
        case Kind::Gtcp:
            return kGtcpBase[col % 7] + 10.0 + grow;
        case Kind::Crack:
            if (col == 0) return static_cast<double>(marker_row(step));
            if (col == 1) return static_cast<double>(marker_row(step) % 3);
            return 10.0 + grow;
        case Kind::Md:
            return 50.0 + grow;
    }
    return 0.0;
}

double Field::at(std::uint64_t step, std::uint64_t row, std::uint64_t col) const {
    if (row == marker_row(step)) return marker(step, col);
    return bank_[((step % kBank) * rows_ + row) * cols_ + col];
}

void Field::fill(std::uint64_t step, std::uint64_t row0, std::uint64_t nrows,
                 double* out) const {
    std::memcpy(out, &bank_[((step % kBank) * rows_ + row0) * cols_],
                nrows * cols_ * sizeof(double));
    const std::uint64_t m = marker_row(step);
    if (m >= row0 && m < row0 + nrows) {
        for (std::uint64_t c = 0; c < cols_; ++c) out[(m - row0) * cols_ + c] = marker(step, c);
    }
}

std::vector<double> reference_values(const Field& field, const Analysis& a,
                                     std::uint64_t step) {
    const std::uint64_t rows = field.rows();
    std::vector<double> out;
    out.reserve(a.magnitude ? rows / a.stride + 1 : (rows / a.stride + 1) * a.columns.size());
    for (std::uint64_t r = 0; r < rows; r += a.stride) {
        if (a.magnitude) {
            double s = 0.0;
            for (const std::uint64_t c : a.columns) {
                const double v = field.at(step, r, c);
                s = s + v * v;
            }
            const double m = std::sqrt(s);
            if (!a.above || m > *a.above) out.push_back(m);
        } else {
            for (const std::uint64_t c : a.columns) {
                const double v = field.at(step, r, c);
                if (!a.above || v > *a.above) out.push_back(v);
            }
        }
    }
    return out;
}

sb::core::HistogramResult reference_histogram(std::span<const double> values,
                                              std::size_t bins, std::uint64_t step) {
    sb::core::HistogramResult h;
    h.step = step;
    h.counts.assign(bins, 0);
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const double v : values) {
        if (std::isnan(v)) continue;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    if (!(lo <= hi) || bins == 0) return h;  // nothing binned: min = max = 0
    h.min = lo;
    h.max = hi;
    const double width = (hi - lo) / static_cast<double>(bins);
    for (const double v : values) {
        if (std::isnan(v)) continue;
        std::size_t b = 0;
        if (width > 0.0) {
            const double x = (v - lo) / width;
            if (x >= static_cast<double>(bins)) {
                b = bins - 1;
            } else if (x > 0.0) {
                b = std::min(static_cast<std::size_t>(x), bins - 1);
            }
        }
        ++h.counts[b];
    }
    return h;
}

Verdict verify(const std::vector<sb::core::HistogramResult>& got,
               std::uint64_t published, const Field& field, const Analysis& a) {
    Verdict v;
    v.published = published;
    std::map<std::uint64_t, const sb::core::HistogramResult*> by_step;
    for (const auto& h : got) {
        if (h.step >= published || !by_step.emplace(h.step, &h).second) {
            ++v.differing;
            v.notes.push_back("unexpected output for step " + std::to_string(h.step));
        }
    }
    for (std::uint64_t t = 0; t < published; ++t) {
        const auto it = by_step.find(t);
        if (it == by_step.end()) {
            ++v.missing;
            v.notes.push_back("step " + std::to_string(t) + ": no output");
            continue;
        }
        const std::vector<double> vals = reference_values(field, a, t);
        if (!(*it->second == reference_histogram(vals, a.bins, t))) {
            ++v.differing;
            v.notes.push_back("step " + std::to_string(t) + ": histogram differs from reference");
        }
    }
    return v;
}

}  // namespace pb
