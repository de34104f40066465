#include "core/component.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <optional>
#include <stdexcept>

#include "core/fusion.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace sb::core {

double steady_now_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void StepStats::record(std::uint64_t step, int rank, double seconds,
                       std::uint64_t bytes_in, std::uint64_t bytes_out) {
    const std::lock_guard lock(mu_);
    samples_.push_back(
        Sample{step, rank, seconds, bytes_in, bytes_out, steady_now_seconds()});
}

std::vector<StepStats::Sample> StepStats::samples() const {
    const std::lock_guard lock(mu_);
    return samples_;
}

std::vector<StepStats::StepRow> StepStats::per_step() const {
    const std::lock_guard lock(mu_);
    std::map<std::uint64_t, StepRow> rows;
    for (const Sample& s : samples_) {
        StepRow& r = rows[s.step];
        r.step = s.step;
        r.nranks += 1;
        r.mean_seconds += s.seconds;  // sum for now; divided below
        r.max_seconds = std::max(r.max_seconds, s.seconds);
        r.bytes_in += s.bytes_in;
        r.bytes_out += s.bytes_out;
    }
    std::vector<StepRow> out;
    out.reserve(rows.size());
    for (auto& [step, r] : rows) {
        r.mean_seconds /= static_cast<double>(r.nranks);
        out.push_back(r);
    }
    return out;
}

double StepStats::mean_step_seconds() const {
    const std::lock_guard lock(mu_);
    if (samples_.empty()) return 0.0;
    double sum = 0.0;
    for (const Sample& s : samples_) sum += s.seconds;
    return sum / static_cast<double>(samples_.size());
}

std::uint64_t StepStats::total_bytes_in() const {
    const std::lock_guard lock(mu_);
    std::uint64_t n = 0;
    for (const Sample& s : samples_) n += s.bytes_in;
    return n;
}

std::uint64_t StepStats::total_bytes_out() const {
    const std::lock_guard lock(mu_);
    std::uint64_t n = 0;
    for (const Sample& s : samples_) n += s.bytes_out;
    return n;
}

std::uint64_t StepStats::steps() const {
    const std::lock_guard lock(mu_);
    std::uint64_t hi = 0;
    for (const Sample& s : samples_) hi = std::max(hi, s.step + 1);
    return hi;
}

void Component::run(RunContext& ctx, const util::ArgList& args) {
    const std::optional<FusedStage> st = stage(args);
    if (!st) throw std::logic_error(name() + ": component has neither run() nor a stage");
    if (!st->arg_errors.empty()) throw util::ArgError(st->arg_errors.front());
    run_fused_chain(ctx, FusedChain{{*st}}, {FusedStageHooks{ctx.instance, ctx.stats}});
}

Ports Component::ports(const util::ArgList& args) const {
    const std::optional<FusedStage> st = stage(args);
    if (!st) return Ports{{}, {}, false};
    Ports p{{st->in_stream}, {}};
    if (!st->out_stream.empty()) p.outputs.push_back(st->out_stream);
    return p;
}

Contract stage_contract(const FusedStage& st) {
    Contract c;
    c.known = true;
    c.param_errors = st.arg_errors;
    InputContract in;
    in.stream = st.in_stream;
    in.array = st.in_array;
    c.inputs.push_back(std::move(in));
    if (!st.out_stream.empty()) {
        OutputContract out;
        out.stream = st.out_stream;
        out.array = st.out_array;
        c.outputs.push_back(std::move(out));
    }
    return c;
}

std::string header_attr_key(const std::string& array, std::size_t dim) {
    return array + ".header." + std::to_string(dim);
}

namespace {

/// If `key` is a header attribute of `array`, returns its dimension index.
std::optional<std::size_t> parse_header_dim(const std::string& key,
                                            const std::string& array) {
    const std::string prefix = array + ".header.";
    if (key.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
    const std::string suffix = key.substr(prefix.size());
    if (suffix.empty() ||
        !std::all_of(suffix.begin(), suffix.end(),
                     [](char c) { return std::isdigit(static_cast<unsigned char>(c)); })) {
        return std::nullopt;
    }
    return std::stoull(suffix);
}

}  // namespace

AttrSet apply_attr_rules(const AttrSet& in, const AttrRules& rules) {
    AttrSet out;
    const std::string in_prefix = rules.in_array + ".";
    for (const auto& [key, values] : in.strings) {
        if (const auto d = parse_header_dim(key, rules.in_array)) {
            if (rules.drop_in_dims.count(*d)) continue;
            if (rules.dim_map.empty()) {
                out.strings[header_attr_key(rules.out_array, *d)] = values;
            } else {
                for (std::size_t j = 0; j < rules.dim_map.size(); ++j) {
                    if (rules.dim_map[j] == *d) {
                        out.strings[header_attr_key(rules.out_array, j)] = values;
                    }
                }
            }
        } else if (key.compare(0, in_prefix.size(), in_prefix) == 0) {
            out.strings[rules.out_array + "." + key.substr(in_prefix.size())] =
                values;
        } else {
            out.strings[key] = values;
        }
    }
    for (const auto& [key, value] : in.doubles) {
        if (key.compare(0, in_prefix.size(), in_prefix) == 0) {
            out.doubles[rules.out_array + "." + key.substr(in_prefix.size())] =
                value;
        } else {
            out.doubles[key] = value;
        }
    }
    return out;
}

void propagate_attributes(const adios::Reader& in, adios::Writer& out,
                          const AttrRules& rules) {
    const AttrSet mapped = apply_attr_rules(
        AttrSet{in.string_attributes(), in.double_attributes()}, rules);
    for (const auto& [key, values] : mapped.strings) out.write_attribute(key, values);
    for (const auto& [key, value] : mapped.doubles) out.write_attribute(key, value);
}

void record_step(const RunContext& ctx, std::uint64_t step, double seconds,
                 std::uint64_t bytes_in, std::uint64_t bytes_out) {
    // Every component's step loop reports through here, which makes it the
    // natural per-step fault point (crash/delay component N at step k).
    fault::hit("component.step", ctx.component);
    if (ctx.stats) ctx.stats->record(step, ctx.comm.rank(), seconds, bytes_in, bytes_out);
    if (!ctx.instance.empty() && obs::enabled()) {
        // Step span: this rank's compute for the step, scoped to the
        // instance label (streams scope the transport segments).
        const double t1 = obs::steady_seconds();
        obs::SpanStore::global().record(ctx.instance, step,
                                        obs::SegmentKind::Compute, t1 - seconds,
                                        t1, ctx.comm.rank());
    }
}

std::size_t pick_partition_dim(const util::NdShape& shape,
                               const std::set<std::size_t>& exclude) {
    std::optional<std::size_t> best;
    for (std::size_t d = 0; d < shape.ndim(); ++d) {
        if (exclude.count(d)) continue;
        if (!best || shape[d] > shape[*best]) best = d;
    }
    if (!best) {
        throw std::invalid_argument("pick_partition_dim: no partitionable dimension in " +
                                    shape.to_string());
    }
    return *best;
}

adios::GroupDef output_group(const std::string& component,
                             const std::string& array_name,
                             const std::vector<std::string>& dim_labels,
                             adios::DataKind kind) {
    adios::GroupDef def;
    def.name = component + "." + array_name;

    // Dimension variable names: the input labels where available and
    // unique, synthesized otherwise — labels keep their meaning downstream
    // (design guideline 2) without ever colliding.
    std::vector<std::string> names;
    names.reserve(dim_labels.size());
    std::set<std::string> seen;
    for (std::size_t i = 0; i < dim_labels.size(); ++i) {
        std::string n = dim_labels[i].empty() ? "d" + std::to_string(i) : dim_labels[i];
        while (!seen.insert(n).second) n += "_" + std::to_string(i);
        names.push_back(std::move(n));
    }
    for (const std::string& n : names) {
        def.vars.push_back(adios::VarSpec{n, adios::DataKind::UInt64, {}});
    }
    def.vars.push_back(adios::VarSpec{array_name, kind, names});
    return def;
}

}  // namespace sb::core
