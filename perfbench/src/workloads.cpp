#include "workloads.hpp"

#include <stdexcept>

#include "sim/toroid_sim.hpp"

namespace pb {

std::vector<sb::core::LaunchEntry> Workload::stages(const std::string& hist_file) const {
    const std::string bins = std::to_string(analysis.bins);
    switch (kind) {
        case Kind::Gtcp:
            // Fig. 6: the 2 -> 1 hop re-distributes through the stream.
            return {
                {2, "select", {stream, array, "2", "psel.fp", "pp", "perpendicular_pressure"}},
                {1, "dim-reduce", {"psel.fp", "pp", "2", "1", "pflat1.fp", "pp1"}},
                {1, "dim-reduce", {"pflat1.fp", "pp1", "0", "1", "pflat2.fp", "pp2"}},
                {1, "histogram", {"pflat2.fp", "pp2", bins, hist_file}},
            };
        case Kind::Crack:
            // Fig. 5/8 extended; equal process counts, so one fused unit.
            return {
                {2, "select", {stream, array, "1", "sel.fp", "vel", "vx", "vy", "vz"}},
                {2, "magnitude", {"sel.fp", "vel", "speed.fp", "speed"}},
                {2, "downsample",
                 {"speed.fp", "speed", "0", std::to_string(analysis.stride), "ds.fp", "dspeed"}},
                {2, "threshold",
                 {"ds.fp", "dspeed", "above", std::to_string(*analysis.above), "thr.fp", "fast"}},
                {2, "histogram", {"thr.fp", "fast", bins, hist_file}},
            };
        case Kind::Md:
            // Fig. 7 persisted.  The process counts differ on both sides of
            // the downsample, so it runs standalone (one-row reads).
            return {
                {2, "magnitude", {stream, array, "radii.fp", "radii"}},
                {1, "downsample",
                 {"radii.fp", "radii", "0", std::to_string(analysis.stride), "ds.fp", "dradii"}},
                {2, "histogram", {"ds.fp", "dradii", bins, hist_file}},
            };
    }
    return {};
}

Hop Workload::replay_hop() const {
    Hop h;
    switch (kind) {
        case Kind::Gtcp:
            // select x2 -> dim-reduce x1: the whole selected field, assembled
            // from two gridpoint slabs (MxN strided copy).
            h.shape = sb::util::NdShape{shape[0], shape[1], 1};
            h.split_dim = 1;
            h.reads = {sb::util::Box::whole(h.shape)};
            break;
        case Kind::Crack:
            // source x2 -> fused chain x2: each rank's aligned block.
            h.shape = shape;
            h.split_dim = 0;
            for (int r = 0; r < 2; ++r) {
                h.reads.push_back(sb::util::partition_along(h.shape, 0, r, 2));
            }
            break;
        case Kind::Md:
            // magnitude x2 -> downsample x1: one single-element read per
            // kept row, through the copy-plan cache.
            h.shape = sb::util::NdShape{rows()};
            h.split_dim = 0;
            for (std::uint64_t i = 0; i < rows(); i += analysis.stride) {
                h.reads.push_back(sb::util::Box({i}, {1}));
            }
            break;
    }
    return h;
}

namespace {

std::vector<Workload> make_workloads() {
    Workload gtcp;
    gtcp.name = "gtcp_mxn";
    gtcp.kind = Kind::Gtcp;
    gtcp.shape = sb::util::NdShape{16, 8192, 7};
    gtcp.partition_dim = 1;
    gtcp.dim_names = {"ntoroidal", "ngridpoints", "nquantities"};
    gtcp.header = sb::sim::kToroidQuantities;
    gtcp.stream = "gtcp.fp";
    gtcp.array = "field3d";
    gtcp.analysis.columns = {3};  // perpendicular_pressure
    gtcp.analysis.bins = 64;
    gtcp.rate_hz = 90.0;
    gtcp.paced_steps = 100;
    gtcp.flat_steps = 300;
    gtcp.expected_chains = 1;  // dim-reduce x1 -> dim-reduce x1 -> histogram x1

    Workload crack;
    crack.name = "crack_fused";
    crack.kind = Kind::Crack;
    crack.shape = sb::util::NdShape{131072, 5};
    crack.partition_dim = 0;
    crack.dim_names = {"natoms", "nfields"};
    crack.header = {"ID", "Type", "vx", "vy", "vz"};
    crack.stream = "dump.fp";
    crack.array = "atoms";
    crack.analysis.columns = {2, 3, 4};
    crack.analysis.magnitude = true;
    crack.analysis.stride = 2;
    crack.analysis.above = 1.0;
    crack.analysis.bins = 64;
    crack.rate_hz = 50.0;
    crack.paced_steps = 60;
    crack.flat_steps = 150;
    crack.expected_chains = 1;  // the whole analysis chain

    Workload md;
    md.name = "md_durable";
    md.kind = Kind::Md;
    md.shape = sb::util::NdShape{32768, 3};
    md.partition_dim = 0;
    md.dim_names = {"natoms", "ncoords"};
    md.header = {"x", "y", "z"};
    md.stream = "gmx.fp";
    md.array = "coords";
    md.analysis.columns = {0, 1, 2};
    md.analysis.magnitude = true;
    md.analysis.stride = 4;
    md.analysis.bins = 32;
    md.rate_hz = 60.0;
    md.paced_steps = 120;
    md.flat_steps = 150;
    md.durable = true;
    md.expected_chains = 0;

    return {gtcp, crack, md};
}

const std::vector<Workload>& all() {
    static const std::vector<Workload> w = make_workloads();
    return w;
}

}  // namespace

const Workload& workload(const std::string& name) {
    for (const Workload& w : all()) {
        if (w.name == name) return w;
    }
    std::string known;
    for (const std::string& n : workload_names()) known += " " + n;
    throw std::invalid_argument("unknown workload '" + name + "' (known:" + known + ")");
}

std::vector<std::string> workload_names() {
    std::vector<std::string> out;
    for (const Workload& w : all()) out.push_back(w.name);
    return out;
}

}  // namespace pb
