#include "source.hpp"

#include <time.h>

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "adios/writer.hpp"
#include "core/registry.hpp"
#include "obs/metrics.hpp"
#include "sim/source_component.hpp"
#include "spans.hpp"

namespace pb {

namespace core = sb::core;
namespace util = sb::util;

namespace {

std::mutex g_probe_mu;
SourceProbe g_probe;  // guarded by g_probe_mu

std::string join(const std::vector<std::string>& v, const char* sep) {
    std::string out;
    for (const std::string& s : v) out += (out.empty() ? "" : sep) + s;
    return out;
}

sb::adios::GroupDef group_for(const Workload& w) {
    std::string xml = "<adios-config>\n  <adios-group name=\"pb_source\">\n";
    for (const std::string& d : w.dim_names) {
        xml += "    <var name=\"" + d + "\" type=\"unsigned long\"/>\n";
    }
    xml += "    <var name=\"" + w.array + "\" type=\"double\" dimensions=\"" +
           join(w.dim_names, ",") + "\"/>\n";
    xml += "    <attribute name=\"" + w.array + ".header." +
           std::to_string(w.shape.ndim() - 1) + "\" value=\"" + join(w.header, ",") + "\"/>\n";
    xml += "  </adios-group>\n  <transport group=\"pb_source\" method=\"FLEXPATH\"/>\n"
           "</adios-config>\n";
    return sb::adios::GroupDef::from_xml(xml);
}

struct Params {
    const Workload* w = nullptr;
    std::uint64_t seed = 0;
    std::uint64_t steps = 0;
    double rate_hz = 0.0;
};

Params parse(const util::ArgList& args) {
    const sb::sim::Deck deck = sb::sim::Deck::from_args(args);
    Params p;
    p.w = &workload(deck.get("workload", ""));
    p.seed = deck.get_u64("seed", 0);
    p.steps = deck.get_u64("steps", 0);
    p.rate_hz = deck.get_double("rate", 0.0);
    return p;
}

class Source final : public core::Component {
public:
    std::string name() const override { return "pb-source"; }
    std::string usage() const override {
        return "pb-source workload=<name> seed=<n> steps=<n> rate=<steps/s, 0 = closed loop>";
    }
    core::Ports ports(const util::ArgList& args) const override {
        return core::Ports{{}, {parse(args).w->stream}};
    }
    core::Contract contract(const util::ArgList& args) const override {
        const Workload& w = *parse(args).w;
        core::Contract c;
        c.known = true;
        core::OutputContract out;
        out.stream = w.stream;
        out.array = w.array;
        out.rule = core::OutputContract::Shape::Source;
        out.kind = core::OutputContract::Kind::Float64;
        for (const std::uint64_t d : w.shape.dims()) out.shape.push_back(core::SymDim::constant(d));
        out.set_headers[w.shape.ndim() - 1] = w.header;
        c.outputs.push_back(std::move(out));
        return c;
    }
    void run(core::RunContext& ctx, const util::ArgList& args) override;
};

void Source::run(core::RunContext& ctx, const util::ArgList& args) {
    const Params p = parse(args);
    const Workload& w = *p.w;
    const Field& field = shared_field(w, p.seed);
    const int rank = ctx.comm.rank();
    const int size = ctx.comm.size();

    const util::Box box = util::partition_along(w.shape, w.partition_dim, rank, size);

    sb::adios::Writer writer(ctx.fabric, w.stream, group_for(w), rank, size,
                             ctx.stream_options);
    const double t0 = ctx.comm.allreduce(sb::obs::steady_seconds(), sb::mpi::ReduceOp::Max);
    if (rank == 0) {
        const std::lock_guard lock(g_probe_mu);
        g_probe.t0 = t0;
    }

    std::vector<SourceProbe::StepRecord> records;
    records.reserve(p.steps);
    for (std::uint64_t t = 0; t < p.steps; ++t) {
        const double due = p.rate_hz > 0.0 ? t0 + static_cast<double>(t) / p.rate_hz : t0;
        const double wait = due - sb::obs::steady_seconds();
        if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        const double begin = sb::obs::steady_seconds();
        double end_step_s = 0.0;
        double fill_cpu_s = 0.0;
        {
            const ScopedSpan step_span("source.step", static_cast<std::int64_t>(t));
            writer.begin_step();
            for (std::size_t d = 0; d < w.shape.ndim(); ++d) {
                writer.set_dimension(w.dim_names[d], w.shape[d]);
            }
            const std::span<double> out = writer.put_span<double>(w.array, box);
            {
                const ScopedSpan fill_span("source.fill", static_cast<std::int64_t>(t));
                const double c0 = thread_cpu_seconds();
                fill_block(field, w, t, box, out.data());
                fill_cpu_s = thread_cpu_seconds() - c0;
            }
            const ScopedSpan end_span("source.end_step", static_cast<std::int64_t>(t));
            const double e0 = sb::obs::steady_seconds();
            writer.end_step();
            end_step_s = sb::obs::steady_seconds() - e0;
        }
        // The ranks advance in lockstep, as a simulation's ranks do when
        // they exchange halos every step.  Without it only the last rank to
        // arrive feels backpressure, and the others run ahead unboundedly.
        ctx.comm.barrier();
        records.push_back({t, rank, due, begin, end_step_s, fill_cpu_s});
        core::record_step(ctx, t, sb::obs::steady_seconds() - begin, 0,
                          box.volume() * sizeof(double));
    }
    writer.close();

    const std::lock_guard lock(g_probe_mu);
    g_probe.steps.insert(g_probe.steps.end(), records.begin(), records.end());
}

}  // namespace

void reset_probe() {
    const std::lock_guard lock(g_probe_mu);
    g_probe = SourceProbe{};
}

SourceProbe take_probe() {
    const std::lock_guard lock(g_probe_mu);
    return std::exchange(g_probe, SourceProbe{});
}

const Field& shared_field(const Workload& w, std::uint64_t seed) {
    static std::mutex mu;
    static std::map<std::pair<std::string, std::uint64_t>, std::unique_ptr<Field>> fields;
    const std::lock_guard lock(mu);
    auto& slot = fields[{w.name, seed}];
    if (!slot) slot = std::make_unique<Field>(w.kind, seed, w.rows(), w.shape[w.shape.ndim() - 1]);
    return *slot;
}

void fill_block(const Field& field, const Workload& w, std::uint64_t step,
                const util::Box& box, double* out) {
    // Rows are the leading dimensions flattened; the source ranks split the
    // last leading dimension, so a block is `outer` contiguous row runs.
    const std::size_t pdim = w.partition_dim;
    std::uint64_t outer = 1;
    for (std::size_t d = 0; d < pdim; ++d) outer *= w.shape[d];
    const std::uint64_t run = box.count[pdim];
    for (std::uint64_t o = 0; o < outer; ++o) {
        field.fill(step, o * w.shape[pdim] + box.offset[pdim], run, out + o * run * field.cols());
    }
}

void register_source() {
    core::register_component("pb-source", [] { return std::make_unique<Source>(); });
}

std::vector<core::LaunchEntry> launch_entries(const Workload& w, std::uint64_t seed,
                                              std::uint64_t steps, double rate_hz,
                                              const std::string& hist_file) {
    std::vector<core::LaunchEntry> out = {
        {kSourceRanks, "pb-source",
         {"workload=" + w.name, "seed=" + std::to_string(seed), "steps=" + std::to_string(steps),
          "rate=" + std::to_string(rate_hz)}},
    };
    for (core::LaunchEntry& e : w.stages(hist_file)) out.push_back(std::move(e));
    return out;
}

namespace {

double clock_seconds(clockid_t clock) {
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

}  // namespace pb
