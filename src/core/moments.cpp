#include "core/moments.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/kernels.hpp"

namespace sb::core {

MomentsResult distributed_moments(const mpi::Communicator& comm,
                                  std::span<const double> local, std::uint64_t step) {
    // Local accumulators (n, sum, sum of squares, sum of cubes, min, max):
    // single-pass in the kernel layer; the Simd schedule lane-splits the
    // sums, which shifts the result by at most rounding order (kernels.hpp).
    const kernels::MomentsAccum acc =
        kernels::moments_accumulate(local, kernels::active_schedule());
    double lo = acc.lo;
    double hi = acc.hi;

    const double sums_in[4] = {acc.n, acc.s1, acc.s2, acc.s3};
    const auto sums = comm.allreduce_vec<double>(sums_in, mpi::ReduceOp::Sum);
    lo = comm.allreduce(lo, mpi::ReduceOp::Min);
    hi = comm.allreduce(hi, mpi::ReduceOp::Max);

    MomentsResult m;
    m.step = step;
    m.count = static_cast<std::uint64_t>(sums[0]);
    if (m.count == 0) return m;
    const double N = sums[0];
    m.mean = sums[1] / N;
    m.variance = std::max(0.0, sums[2] / N - m.mean * m.mean);
    if (m.count >= 2 && m.variance > 0.0) {
        const double third_central =
            sums[3] / N - 3.0 * m.mean * sums[2] / N + 2.0 * m.mean * m.mean * m.mean;
        m.skewness = third_central / std::pow(m.variance, 1.5);
    }
    m.min = lo;
    m.max = hi;
    return m;
}

void write_moments(std::ostream& os, const MomentsResult& m) {
    const auto old_precision =
        os.precision(std::numeric_limits<double>::max_digits10);
    os << m.step << ' ' << m.count << ' ' << m.mean << ' ' << m.variance << ' '
       << m.skewness << ' ' << m.min << ' ' << m.max << "\n";
    os.precision(old_precision);
}

std::optional<std::uint64_t> last_moments_step(const std::string& path) {
    std::ifstream in(path);
    std::optional<std::uint64_t> last;
    std::string line;
    while (in && std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream is(line);
        std::uint64_t step = 0;
        if (is >> step) {
            if (!last || step > *last) last = step;
        }
    }
    return last;
}

std::vector<MomentsResult> read_moments_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("moments: cannot open '" + path + "'");
    std::vector<MomentsResult> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream is(line);
        MomentsResult m;
        if (!(is >> m.step >> m.count >> m.mean >> m.variance >> m.skewness >> m.min >>
              m.max)) {
            throw std::runtime_error("moments: malformed line: " + line);
        }
        out.push_back(m);
    }
    return out;
}

std::optional<FusedStage> Moments::stage(const util::ArgList& args) const {
    args.require_at_least(2, usage());
    FusedStage st;
    st.kind = FusedStage::Kind::Moments;
    st.component = name();
    st.in_stream = args.str(0, "input-stream-name");
    st.in_array = args.str(1, "input-array-name");
    st.out_file = args.size() > 2 ? args.str(2, "output-file")
                                  : "moments_" + st.in_array + ".txt";
    return st;
}

}  // namespace sb::core
