#include "core/histogram.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/kernels.hpp"

namespace sb::core {

double HistogramResult::bin_lo(std::size_t b) const {
    const double width = (max - min) / static_cast<double>(counts.size());
    return min + width * static_cast<double>(b);
}

double HistogramResult::bin_hi(std::size_t b) const {
    const double width = (max - min) / static_cast<double>(counts.size());
    return b + 1 == counts.size() ? max : min + width * static_cast<double>(b + 1);
}

std::vector<std::uint64_t> histogram_counts(std::span<const double> values,
                                            double min, double max,
                                            std::size_t bins) {
    if (bins == 0) throw std::invalid_argument("histogram: num-bins must be positive");
    std::vector<std::uint64_t> counts(bins, 0);
    // Edge semantics (NaN dropped, out-of-range clamped into the edge bins,
    // degenerate range -> bin 0) are defined once in the kernel layer; both
    // schedules produce identical counts on these inputs (kernels.hpp).
    kernels::histogram_accumulate(values, min, max, counts,
                                  kernels::active_schedule());
    return counts;
}

HistogramResult distributed_histogram(const mpi::Communicator& comm,
                                      std::span<const double> local,
                                      std::size_t bins, std::uint64_t step) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const double v : local) {
        if (std::isnan(v)) continue;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    lo = comm.allreduce(lo, mpi::ReduceOp::Min);
    hi = comm.allreduce(hi, mpi::ReduceOp::Max);

    HistogramResult h;
    h.step = step;
    if (!(lo <= hi)) {
        // No finite values anywhere.  The min/max allreduces already ran on
        // every rank, so all ranks agree and take this branch together.
        h.min = 0.0;
        h.max = 0.0;
        h.counts.assign(bins, 0);
        return h;
    }
    h.min = lo;
    h.max = hi;
    const std::vector<std::uint64_t> local_counts = histogram_counts(local, lo, hi, bins);
    h.counts = comm.allreduce_vec<std::uint64_t>(local_counts, mpi::ReduceOp::Sum);
    return h;
}

void write_histogram(std::ostream& os, const HistogramResult& h) {
    // Full round-trip precision: the files are parsed back by tests and by
    // downstream tooling comparing against references.
    const auto old_precision =
        os.precision(std::numeric_limits<double>::max_digits10);
    os << "# step " << h.step << " bins " << h.counts.size() << " min " << h.min
       << " max " << h.max << " total " << h.total() << "\n";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
        os << h.bin_lo(b) << ' ' << h.bin_hi(b) << ' ' << h.counts[b] << "\n";
    }
    os.precision(old_precision);
}

std::optional<std::uint64_t> last_histogram_step(const std::string& path) {
    std::ifstream in(path);
    std::optional<std::uint64_t> last;
    std::string line;
    while (in && std::getline(in, line)) {
        std::istringstream is(line);
        std::string hash, kw;
        std::uint64_t step = 0;
        if (is >> hash >> kw >> step && hash == "#" && kw == "step") {
            if (!last || step > *last) last = step;
        }
    }
    return last;
}

std::vector<HistogramResult> read_histogram_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("histogram: cannot open '" + path + "'");
    std::vector<HistogramResult> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (line[0] == '#') {
            std::istringstream is(line);
            std::string hash, kw;
            HistogramResult h;
            std::size_t bins = 0;
            std::uint64_t total = 0;
            is >> hash >> kw >> h.step;   // "# step N"
            is >> kw >> bins;             // "bins B"
            is >> kw >> h.min;            // "min m"
            is >> kw >> h.max;            // "max M"
            is >> kw >> total;            // "total T"
            if (!is) throw std::runtime_error("histogram: malformed header: " + line);
            h.counts.reserve(bins);
            out.push_back(std::move(h));
        } else {
            if (out.empty()) throw std::runtime_error("histogram: data before header");
            std::istringstream is(line);
            double lo, hi;
            std::uint64_t count;
            if (!(is >> lo >> hi >> count)) {
                throw std::runtime_error("histogram: malformed bin line: " + line);
            }
            out.back().counts.push_back(count);
        }
    }
    return out;
}

std::optional<FusedStage> Histogram::stage(const util::ArgList& args) const {
    args.require_at_least(3, usage());
    FusedStage st;
    st.kind = FusedStage::Kind::Histogram;
    st.component = name();
    st.in_stream = args.str(0, "input-stream-name");
    st.in_array = args.str(1, "input-array-name");
    st.bins = stage_arg(st, [&] { return args.unsigned_integer(2, "num-bins"); });
    st.out_file = args.size() > 3 ? args.str(3, "output-file")
                                  : "histogram_" + st.in_array + ".txt";
    if (st.arg_errors.empty() && st.bins == 0) {
        st.arg_errors.emplace_back("histogram: num-bins must be positive");
    }
    return st;
}

}  // namespace sb::core
