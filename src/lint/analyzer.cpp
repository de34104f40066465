// The abstract interpreter behind sb::lint (see lint.hpp for the rule
// inventory and docs/LINT.md for the catalog with examples).
//
// Analysis runs in three layers, each feeding the next:
//   1. resolution — every launch entry is resolved through the component
//      registry into its Ports and Contract (argument errors become
//      diagnostics, never exceptions);
//   2. wiring — the core/graph.hpp rules, re-emitted with stable rule IDs,
//      launch-script line anchors, and fix-it hints (including a
//      nearest-stream-name suggestion for dangling inputs);
//   3. contracts — when the wiring is sound, the components' symbolic
//      contracts are interpreted in topological order: every stream carries
//      an abstract variable (array name, symbolic shape, element kind,
//      per-dimension header knowledge), readers check their requirements
//      against it, and opaque producers introduce rank variables that are
//      solved workflow-wide once all constraints are collected.
//
// Fusion-legality notes call the *actual* planner (core/fusion.hpp), and the
// config-safety rules audit the workflow-level knobs in Options — neither
// depends on the contract layer, so both still run on mis-wired graphs.
#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/component.hpp"
#include "core/contract.hpp"
#include "core/fusion.hpp"
#include "core/registry.hpp"
#include "lint/lint.hpp"
#include "util/argparse.hpp"

namespace sb::lint {

namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

std::string describe(const core::LaunchEntry& e, std::size_t index) {
    return "#" + std::to_string(index + 1) + " " + e.component;
}

// ---------------------------------------------------------------- resolution

struct Node {
    core::LaunchEntry entry;
    core::Ports ports{{}, {}, false};
    core::Contract contract;
    bool registered = false;
    std::string arg_error;  // ports() rejected the arguments
};

std::vector<Node> resolve(const std::vector<core::LaunchEntry>& entries) {
    std::vector<Node> nodes;
    nodes.reserve(entries.size());
    for (const core::LaunchEntry& e : entries) {
        Node n;
        n.entry = e;
        std::unique_ptr<core::Component> c;
        try {
            c = core::make_component(e.component);
            n.registered = true;
        } catch (const std::exception&) {
            nodes.push_back(std::move(n));
            continue;
        }
        const util::ArgList args(e.args);
        try {
            n.ports = c->ports(args);
        } catch (const util::ArgError& err) {
            n.ports = core::Ports{{}, {}, false};
            n.arg_error = err.what();
        }
        try {
            n.contract = c->contract(args);
        } catch (const std::exception&) {
            n.contract = core::Contract{};
        }
        nodes.push_back(std::move(n));
    }
    return nodes;
}

// -------------------------------------------------------------------- wiring

std::size_t edit_distance(const std::string& a, const std::string& b) {
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t up = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = up;
        }
    }
    return row[b.size()];
}

/// "did you mean 'X'?" for a stream nobody writes.
std::string nearest_stream_hint(const std::string& wanted,
                                const std::map<std::string, std::vector<std::size_t>>& writers) {
    std::string best;
    std::size_t best_d = npos;
    for (const auto& [name, who] : writers) {
        const std::size_t d = edit_distance(wanted, name);
        if (d < best_d) {
            best_d = d;
            best = name;
        }
    }
    if (best.empty() || best_d > std::max<std::size_t>(2, wanted.size() / 3)) {
        return "add a component that writes '" + wanted +
               "', or fix the stream name";
    }
    return "did you mean '" + best + "'?";
}

/// The core/graph.hpp wiring rules with rule IDs, line anchors and hints.
/// `fail_fast_only` restricts to the four rules Workflow::run enforces.
void wiring_rules(const std::vector<Node>& nodes, bool fail_fast_only,
                  std::vector<Diagnostic>& out) {
    std::map<std::string, std::vector<std::size_t>> writers, readers;
    bool any_unknown = false;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!nodes[i].ports.known) {
            any_unknown = true;
            continue;
        }
        for (const auto& s : nodes[i].ports.outputs) writers[s].push_back(i);
        for (const auto& s : nodes[i].ports.inputs) readers[s].push_back(i);
    }

    if (!fail_fast_only) {
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            if (!nodes[i].registered) {
                out.push_back(Diagnostic{
                    "graph-bad-arguments", Severity::Error, nodes[i].entry.line,
                    describe(nodes[i].entry, i),
                    "unknown component '" + nodes[i].entry.component + "'",
                    "run `smartblock_run --list` for the registered names"});
            } else if (!nodes[i].arg_error.empty()) {
                out.push_back(Diagnostic{"graph-bad-arguments", Severity::Error,
                                         nodes[i].entry.line,
                                         describe(nodes[i].entry, i),
                                         nodes[i].arg_error, ""});
            } else if (!nodes[i].ports.known) {
                out.push_back(Diagnostic{
                    "graph-opaque-ports", Severity::Note, nodes[i].entry.line,
                    describe(nodes[i].entry, i),
                    "component declares no ports; wiring and contract checks "
                    "treat it as opaque (dangling-stream detection is "
                    "suppressed for the whole workflow)",
                    "override Component::ports (and contract) so the "
                    "analyzer can see through it"});
            }
        }
    }

    for (const auto& [stream, who] : writers) {
        if (who.size() <= 1) continue;
        std::string names;
        for (const auto i : who) {
            names += (names.empty() ? "" : ", ") + describe(nodes[i].entry, i);
        }
        out.push_back(Diagnostic{
            "graph-multiple-writers", Severity::Error, nodes[who[1]].entry.line,
            describe(nodes[who[1]].entry, who[1]),
            "stream '" + stream + "' written by " + names,
            "streams support exactly one writer group; rename one output"});
    }
    for (const auto& [stream, who] : readers) {
        if (who.size() > 1) {
            std::string names;
            for (const auto i : who) {
                names += (names.empty() ? "" : ", ") + describe(nodes[i].entry, i);
            }
            out.push_back(Diagnostic{
                "graph-multiple-readers", Severity::Error,
                nodes[who[1]].entry.line, describe(nodes[who[1]].entry, who[1]),
                "stream '" + stream + "' read by " + names,
                "streams support exactly one reader group; duplicate the "
                "stream with `fork` to fan out"});
        }
        if (!writers.count(stream) && !any_unknown) {
            out.push_back(Diagnostic{
                "graph-dangling-input", Severity::Error, nodes[who[0]].entry.line,
                describe(nodes[who[0]].entry, who[0]),
                "stream '" + stream + "' is read by " +
                    describe(nodes[who[0]].entry, who[0]) +
                    " but nothing writes it (the reader would block forever)",
                nearest_stream_hint(stream, writers)});
        }
    }
    if (!fail_fast_only) {
        for (const auto& [stream, who] : writers) {
            if (readers.count(stream) || any_unknown) continue;
            out.push_back(Diagnostic{
                "graph-unconsumed-output", Severity::Warning,
                nodes[who[0]].entry.line, describe(nodes[who[0]].entry, who[0]),
                "stream '" + stream + "' is written by " +
                    describe(nodes[who[0]].entry, who[0]) +
                    " but nothing reads it (the writer stalls once its "
                    "buffer fills)",
                "add a reader or drop the output"});
        }
    }

    // Cycle detection (iterative DFS mirroring core/graph.cpp).
    std::vector<std::vector<std::size_t>> adj(nodes.size());
    for (const auto& [stream, rs] : readers) {
        const auto wit = writers.find(stream);
        if (wit == writers.end()) continue;
        for (const auto w : wit->second) {
            for (const auto r : rs) adj[w].push_back(r);
        }
    }
    std::vector<int> state(nodes.size(), 0);  // 0=unvisited 1=in-stack 2=done
    std::vector<std::size_t> stack;
    bool found_cycle = false;
    const std::function<void(std::size_t)> dfs = [&](std::size_t v) {
        state[v] = 1;
        stack.push_back(v);
        for (const std::size_t w : adj[v]) {
            if (found_cycle) return;
            if (state[w] == 1) {
                std::string path;
                for (auto it = std::find(stack.begin(), stack.end(), w);
                     it != stack.end(); ++it) {
                    path += describe(nodes[*it].entry, *it) + " -> ";
                }
                out.push_back(Diagnostic{
                    "graph-cycle", Severity::Error, nodes[w].entry.line,
                    describe(nodes[w].entry, w),
                    "dependency cycle: " + path + describe(nodes[w].entry, w),
                    "in situ pipelines must be DAGs; break the loop"});
                found_cycle = true;
                return;
            }
            if (state[w] == 0) dfs(w);
        }
        stack.pop_back();
        state[v] = 2;
    };
    for (std::size_t v = 0; v < nodes.size() && !found_cycle; ++v) {
        if (state[v] == 0) dfs(v);
    }
}

// ------------------------------------------------------------ abstract state

/// What the analyzer knows about one dimension's header attribute.
struct AbsHeader {
    bool names_known = false;
    std::vector<std::string> names;
};

/// The abstract value flowing along one stream: everything the analyzer
/// knows about the array its writer publishes per step.
struct AbsVar {
    bool valid = false;        // a known writer output backs this stream
    bool array_known = false;  // false when the producer's contract is opaque
    std::string array;

    bool rank_known = false;
    std::vector<core::SymDim> dims;  // rank_known
    int rank_var = -1;               // !rank_known: rank == vars[rank_var]+delta
    int rank_delta = 0;

    enum class K { Float64, Other, Unknown };
    K kind = K::Unknown;

    /// True when the full header set is known (a source or a fully tracked
    /// transform chain) — only then can a *missing* header be reported.
    bool headers_complete = false;
    std::map<std::size_t, AbsHeader> headers;
    /// Dimensions whose header was provably dropped upstream, with the
    /// provenance text naming the dropper.
    std::map<std::size_t, std::string> dropped;

    std::size_t producer = npos;
    std::size_t producer_line = 0;
};

std::string shape_to_string(const std::vector<core::SymDim>& dims) {
    std::string s = "[";
    for (std::size_t i = 0; i < dims.size(); ++i) {
        s += (i ? ", " : "") + dims[i].to_string();
    }
    return s + "]";
}

/// A solved-later rank requirement on an opaque producer's rank variable.
struct RankConstraint {
    int var = -1;
    long long value = 0;  // exact: rank var == value; min: rank var >= value
    bool exact = false;
    std::string site;  // "#3 histogram (input-array must be 1-D)"
    std::size_t line = 0;
};

/// Pins an unknown-rank variable to a concrete rank: opaque dimensions whose
/// tags are a pure function of (rank var, delta, index), so two branches of
/// one stream materialized at the same rank stay provably equal.
void materialize(AbsVar& v, std::size_t rank) {
    v.rank_known = true;
    v.dims.clear();
    for (std::size_t i = 0; i < rank; ++i) {
        v.dims.push_back(core::SymDim::opaque(
            "r" + std::to_string(v.rank_var) +
            (v.rank_delta ? ("+" + std::to_string(v.rank_delta)) : "") + "[" +
            std::to_string(i) + "]"));
    }
}

// -------------------------------------------------------- the interpretation

class Interpreter {
public:
    Interpreter(const std::vector<Node>& nodes, std::vector<Diagnostic>& out)
        : nodes_(nodes), out_(out) {}

    void run() {
        for (const std::size_t i : topo_order()) visit(i);
        solve_ranks();
    }

private:
    const std::vector<Node>& nodes_;
    std::vector<Diagnostic>& out_;
    std::map<std::string, AbsVar> streams_;  // stream name -> abstract value
    int next_rank_var_ = 0;
    std::vector<RankConstraint> constraints_;

    /// Writer-before-reader order (the wiring layer already rejected
    /// cycles, multi-writers and multi-readers before we run).
    std::vector<std::size_t> topo_order() const {
        std::map<std::string, std::size_t> writer;
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            if (!nodes_[i].ports.known) continue;
            for (const auto& s : nodes_[i].ports.outputs) writer[s] = i;
        }
        std::vector<std::size_t> indeg(nodes_.size(), 0);
        std::vector<std::vector<std::size_t>> adj(nodes_.size());
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            if (!nodes_[i].ports.known) continue;
            for (const auto& s : nodes_[i].ports.inputs) {
                const auto wit = writer.find(s);
                if (wit == writer.end() || wit->second == i) continue;
                adj[wit->second].push_back(i);
                ++indeg[i];
            }
        }
        std::vector<std::size_t> order, queue;
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            if (indeg[i] == 0) queue.push_back(i);
        }
        for (std::size_t q = 0; q < queue.size(); ++q) {
            const std::size_t v = queue[q];
            order.push_back(v);
            for (const std::size_t w : adj[v]) {
                if (--indeg[w] == 0) queue.push_back(w);
            }
        }
        return order;  // == nodes_.size() entries: the graph is a DAG here
    }

    void diag(const std::string& rule, Severity sev, std::size_t i,
              const std::string& message, const std::string& hint) {
        out_.push_back(Diagnostic{rule, sev, nodes_[i].entry.line,
                                  describe(nodes_[i].entry, i), message, hint});
    }

    void visit(std::size_t i) {
        const Node& n = nodes_[i];
        const core::Contract& c = n.contract;

        for (const std::string& msg : c.param_errors) {
            diag("shape-bad-param", Severity::Error, i, msg,
                 "this argument combination fails at the first step; fix it "
                 "before launch");
        }

        if (!c.known) {
            // Opaque component: its outputs exist (per ports) but carry no
            // static knowledge — fresh rank variables downstream.
            for (const std::string& s : n.ports.outputs) {
                AbsVar v;
                v.valid = true;
                v.rank_var = next_rank_var_++;
                v.producer = i;
                v.producer_line = n.entry.line;
                streams_[s] = std::move(v);
            }
            return;
        }

        // Check every declared input against its stream's abstract value;
        // keep the (possibly rank-materialized) copies for the transforms.
        std::vector<std::optional<AbsVar>> in_vars;
        for (const core::InputContract& in : c.inputs) {
            const auto it = streams_.find(in.stream);
            if (it == streams_.end() || !it->second.valid) {
                // Dangling (suppressed by an opaque node) — nothing to check.
                in_vars.emplace_back(std::nullopt);
                continue;
            }
            AbsVar v = it->second;
            check_input(i, in, v);
            in_vars.emplace_back(std::move(v));
        }

        if (c.inputs_equal && in_vars.size() >= 2 && in_vars[0] && in_vars[1]) {
            check_inputs_equal(i, c, *in_vars[0], *in_vars[1]);
        }

        const AbsVar* base =
            (!in_vars.empty() && in_vars[0]) ? &*in_vars[0] : nullptr;
        for (const core::OutputContract& out : c.outputs) {
            streams_[out.stream] = apply_output(i, out, base);
        }
    }

    void check_input(std::size_t i, const core::InputContract& in, AbsVar& v) {
        const std::string writer =
            v.producer == npos ? "its writer"
                               : describe(nodes_[v.producer].entry, v.producer);

        if (v.array_known && v.array != in.array) {
            diag("shape-array-mismatch", Severity::Error, i,
                 "reads array '" + in.array + "' from stream '" + in.stream +
                     "', but " + writer + " writes array '" + v.array + "'",
                 "use the writer's array name '" + v.array + "'");
            // The declared array does not exist on the stream; rank/kind/
            // header checks against the writer's array would be noise.
            return;
        }

        // Effective minimum rank: the declared floor, every dimension-index
        // parameter, and every header requirement each imply rank > index.
        std::size_t eff_min = in.min_rank;
        for (const auto& [name, idx] : in.dim_params) {
            eff_min = std::max(eff_min, idx + 1);
        }
        for (const auto& [d, names] : in.need_headers) {
            eff_min = std::max(eff_min, d + 1);
        }

        if (!v.rank_known) {
            const std::string site =
                describe(nodes_[i].entry, i) + " reading stream '" + in.stream +
                "'";
            if (in.exact_rank) {
                constraints_.push_back(RankConstraint{
                    v.rank_var,
                    static_cast<long long>(*in.exact_rank) - v.rank_delta, true,
                    site + " (needs rank " + std::to_string(*in.exact_rank) + ")",
                    nodes_[i].entry.line});
                materialize(v, *in.exact_rank);
            } else if (eff_min > 0) {
                constraints_.push_back(RankConstraint{
                    v.rank_var, static_cast<long long>(eff_min) - v.rank_delta,
                    false,
                    site + " (needs rank >= " + std::to_string(eff_min) + ")",
                    nodes_[i].entry.line});
                return;  // rank still open: nothing further to check
            } else {
                return;
            }
        } else {
            const std::string shape = shape_to_string(v.dims);
            if (in.exact_rank && v.dims.size() != *in.exact_rank) {
                diag("shape-rank-mismatch", Severity::Error, i,
                     "needs a " + std::to_string(*in.exact_rank) +
                         "-D array on stream '" + in.stream + "', but " +
                         writer + " writes '" + v.array + "' with shape " +
                         shape,
                     "insert a rank-changing stage (reduce, magnitude, "
                     "dim-reduce) or fix the wiring");
                return;
            }
            // Dimension-index parameters first: "dimension-index=3 is out
            // of range" names the actual mistake, where the generic
            // min-rank message would only restate its consequence.
            for (const auto& [name, idx] : in.dim_params) {
                if (idx >= v.dims.size()) {
                    diag("shape-dim-out-of-range", Severity::Error, i,
                         "parameter " + name + "=" + std::to_string(idx) +
                             " is out of range for '" + v.array + "' with shape " +
                             shape + " (valid: 0.." +
                             std::to_string(v.dims.size() - 1) + ")",
                         "pick a dimension index below the array's rank");
                    return;
                }
            }
            if (v.dims.size() < eff_min) {
                diag("shape-rank-mismatch", Severity::Error, i,
                     "needs at least a " + std::to_string(eff_min) +
                         "-D array on stream '" + in.stream + "', but " +
                         writer + " writes '" + v.array + "' with shape " +
                         shape,
                     "");
                return;
            }
        }

        if (in.needs_float64 && v.kind == AbsVar::K::Other) {
            diag("shape-kind-mismatch", Severity::Error, i,
                 "needs float64 elements on stream '" + in.stream + "', but " +
                     writer + " writes a non-float64 array",
                 "");
        }

        for (const auto& [d, required] : in.need_headers) {
            if (d >= v.dims.size()) continue;  // dim_params already fired
            check_header(i, in, v, d, required, writer);
        }
    }

    void check_header(std::size_t i, const core::InputContract& in,
                      const AbsVar& v, std::size_t d,
                      const std::vector<std::string>& required,
                      const std::string& writer) {
        const std::string key = core::header_attr_key(in.array, d);
        if (const auto dit = v.dropped.find(d); dit != v.dropped.end()) {
            diag("attr-header-dropped", Severity::Error, i,
                 "needs header attribute '" + key + "', but " + dit->second,
                 "re-order the pipeline so this component runs before the "
                 "header is dropped");
            return;
        }
        const auto hit = v.headers.find(d);
        if (hit == v.headers.end()) {
            if (!v.headers_complete) return;  // unknown, not absent
            diag("attr-header-missing", Severity::Error, i,
                 "needs header attribute '" + key + "' naming dimension " +
                     std::to_string(d) + ", but " + writer +
                     " publishes no header for that dimension",
                 "only simulation sources and `select` attach headers; check "
                 "the dimension index");
            return;
        }
        if (required.empty() || !hit->second.names_known) return;
        for (const std::string& want : required) {
            if (std::find(hit->second.names.begin(), hit->second.names.end(),
                          want) != hit->second.names.end()) {
                continue;
            }
            std::string have;
            for (const auto& nm : hit->second.names) {
                have += (have.empty() ? "" : ", ") + nm;
            }
            diag("attr-header-name", Severity::Error, i,
                 "selects '" + want + "' from header '" + key +
                     "', but the header published by " + writer +
                     " only names [" + have + "]",
                 "pick from the published names");
        }
    }

    void check_inputs_equal(std::size_t i, const core::Contract& c,
                            const AbsVar& a, const AbsVar& b) {
        const core::InputContract& ia = c.inputs[0];
        const core::InputContract& ib = c.inputs[1];
        if (!a.rank_known || !b.rank_known) {
            // One side's rank is still open: pin it to the other's.
            if (a.rank_known != b.rank_known) {
                const AbsVar& open = a.rank_known ? b : a;
                const AbsVar& fixed = a.rank_known ? a : b;
                constraints_.push_back(RankConstraint{
                    open.rank_var,
                    static_cast<long long>(fixed.dims.size()) - open.rank_delta,
                    true,
                    describe(nodes_[i].entry, i) +
                        " (both inputs must agree in shape; the other is " +
                        std::to_string(fixed.dims.size()) + "-D)",
                    nodes_[i].entry.line});
            }
            return;
        }
        if (a.dims.size() != b.dims.size()) {
            diag("shape-validate-mismatch", Severity::Error, i,
                 "compares '" + ia.array + "' (" + shape_to_string(a.dims) +
                     ") against '" + ib.array + "' (" + shape_to_string(b.dims) +
                     "), but their ranks differ",
                 "both branches must apply the same shape transforms");
            return;
        }
        for (std::size_t d = 0; d < a.dims.size(); ++d) {
            if (a.dims[d].distinct(b.dims[d])) {
                diag("shape-validate-mismatch", Severity::Error, i,
                     "compares '" + ia.array + "' (" + shape_to_string(a.dims) +
                         ") against '" + ib.array + "' (" +
                         shape_to_string(b.dims) + "); dimension " +
                         std::to_string(d) + " provably differs (" +
                         a.dims[d].to_string() + " vs " + b.dims[d].to_string() +
                         ")",
                     "both branches must apply the same shape transforms");
                return;
            }
        }
        if ((a.kind == AbsVar::K::Float64 && b.kind == AbsVar::K::Other) ||
            (a.kind == AbsVar::K::Other && b.kind == AbsVar::K::Float64)) {
            diag("shape-validate-mismatch", Severity::Error, i,
                 "compares arrays of different element kinds", "");
        }
    }

    AbsVar apply_output(std::size_t i, const core::OutputContract& out,
                        const AbsVar* in) {
        using Shape = core::OutputContract::Shape;
        AbsVar v;
        v.valid = true;
        v.array_known = true;
        v.array = out.array;
        v.producer = i;
        v.producer_line = nodes_[i].entry.line;

        // Element kind.
        switch (out.kind) {
            case core::OutputContract::Kind::Float64:
                v.kind = AbsVar::K::Float64;
                break;
            case core::OutputContract::Kind::Preserve:
                v.kind = in ? in->kind : AbsVar::K::Unknown;
                break;
            case core::OutputContract::Kind::Unknown:
                v.kind = AbsVar::K::Unknown;
                break;
        }

        if (out.rule == Shape::Source) {
            v.rank_known = true;
            v.dims = out.shape;
            v.headers_complete = true;
            apply_set_headers(v, out);
            return v;
        }
        if (out.rule == Shape::Unknown || !in || (!in->rank_known && !in->valid)) {
            v.rank_var = next_rank_var_++;
            apply_set_headers(v, out);
            return v;
        }

        // Transform rules over the (checked) first input.
        const AbsVar& src = *in;
        v.headers_complete = src.headers_complete;
        if (!src.rank_known) {
            // Rank still symbolic: propagate the variable with an adjusted
            // delta; header knowledge cannot be indexed without a rank.
            v.rank_var = src.rank_var;
            v.rank_delta = src.rank_delta;
            v.headers_complete = false;
            switch (out.rule) {
                case Shape::Identity:
                case Shape::SetDim:
                case Shape::DivideDim:
                    break;
                case Shape::AbsorbDim:
                case Shape::DropDim:
                    v.rank_delta -= 1;
                    break;
                default:
                    // Collapse2Dto1D / Square1D / Filter1D / Permute inputs
                    // carry exact-rank requirements, so check_input always
                    // materialized them; defensive fallback only.
                    v.rank_var = next_rank_var_++;
                    v.rank_delta = 0;
                    break;
            }
            apply_set_headers(v, out);
            return v;
        }

        v.rank_known = true;
        v.dims = src.dims;
        v.headers = src.headers;
        v.dropped = src.dropped;
        const auto shift_maps_above = [&](std::size_t removed) {
            std::map<std::size_t, AbsHeader> h;
            for (auto& [d, hdr] : v.headers) {
                if (d == removed) continue;
                h[d > removed ? d - 1 : d] = std::move(hdr);
            }
            v.headers = std::move(h);
            std::map<std::size_t, std::string> dr;
            for (auto& [d, why] : v.dropped) {
                if (d == removed) continue;
                dr[d > removed ? d - 1 : d] = std::move(why);
            }
            v.dropped = std::move(dr);
        };

        switch (out.rule) {
            case Shape::Identity:
                break;
            case Shape::SetDim:
                if (out.dim < v.dims.size()) {
                    v.dims[out.dim] = core::SymDim::constant(out.count);
                    v.headers.erase(out.dim);
                    v.dropped.erase(out.dim);
                }
                break;
            case Shape::DivideDim:
                if (out.dim < v.dims.size() && out.count > 0) {
                    core::SymDim& d = v.dims[out.dim];
                    if (d.is_const()) {
                        d = core::SymDim::constant((d.value + out.count - 1) /
                                                   out.count);
                    } else {
                        d = core::SymDim::opaque(d.tag + "/" +
                                                 std::to_string(out.count));
                    }
                    if (auto hit = v.headers.find(out.dim);
                        hit != v.headers.end() && hit->second.names_known) {
                        std::vector<std::string> kept;
                        for (std::size_t k = 0; k < hit->second.names.size();
                             k += out.count) {
                            kept.push_back(hit->second.names[k]);
                        }
                        hit->second.names = std::move(kept);
                    }
                }
                break;
            case Shape::AbsorbDim: {
                const std::size_t r = out.dim, g = out.dim2;
                if (r >= v.dims.size() || g >= v.dims.size() || r == g) break;
                const core::SymDim removed = v.dims[r];
                core::SymDim& grown = v.dims[g];
                if (removed.is_const() && grown.is_const()) {
                    grown = core::SymDim::constant(grown.value * removed.value);
                } else {
                    grown = core::SymDim::opaque(grown.to_string() + "*" +
                                                 removed.to_string());
                }
                v.headers.erase(r);
                v.headers.erase(g);
                v.dropped.erase(r);
                v.dims.erase(v.dims.begin() + static_cast<std::ptrdiff_t>(r));
                shift_maps_above(r);
                const std::size_t g2 = g > r ? g - 1 : g;
                v.dropped[g2] = describe(nodes_[i].entry, i) +
                                " absorbed dimension " + std::to_string(r) +
                                " into " + std::to_string(g) +
                                " and dropped both headers";
                break;
            }
            case Shape::DropDim:
                if (out.dim >= v.dims.size()) break;
                v.dims.erase(v.dims.begin() +
                             static_cast<std::ptrdiff_t>(out.dim));
                v.headers.erase(out.dim);
                v.dropped.erase(out.dim);
                shift_maps_above(out.dim);
                break;
            case Shape::Permute: {
                if (out.perm.size() != v.dims.size()) break;
                std::vector<core::SymDim> nd(v.dims.size());
                std::map<std::size_t, AbsHeader> nh;
                std::map<std::size_t, std::string> ndr;
                for (std::size_t j = 0; j < out.perm.size(); ++j) {
                    nd[j] = v.dims[out.perm[j]];
                    if (auto hit = v.headers.find(out.perm[j]);
                        hit != v.headers.end()) {
                        nh[j] = hit->second;
                    }
                    if (auto dit = v.dropped.find(out.perm[j]);
                        dit != v.dropped.end()) {
                        ndr[j] = dit->second;
                    }
                }
                v.dims = std::move(nd);
                v.headers = std::move(nh);
                v.dropped = std::move(ndr);
                break;
            }
            case Shape::Collapse2Dto1D: {
                if (v.dims.size() != 2) break;
                v.dims = {v.dims[0]};
                v.headers.erase(1);
                v.dropped.erase(1);
                break;
            }
            case Shape::Square1D: {
                if (v.dims.size() != 1) break;
                v.dims = {v.dims[0], v.dims[0]};
                if (auto hit = v.headers.find(0); hit != v.headers.end()) {
                    v.headers[1] = hit->second;  // dim_map {0,0}
                }
                break;
            }
            case Shape::Filter1D: {
                if (v.dims.size() != 1) break;
                v.dims = {core::SymDim::opaque(describe(nodes_[i].entry, i) +
                                               " pass count")};
                if (auto hit = v.headers.find(0); hit != v.headers.end()) {
                    // The runtime copies the header verbatim, but its names
                    // no longer index the filtered extent — treat the names
                    // as unknown so downstream selects are not mis-blessed.
                    hit->second.names_known = false;
                    hit->second.names.clear();
                }
                break;
            }
            case Shape::Source:
            case Shape::Unknown:
                break;  // handled above
        }
        apply_set_headers(v, out);
        return v;
    }

    static void apply_set_headers(AbsVar& v, const core::OutputContract& out) {
        for (const auto& [d, names] : out.set_headers) {
            v.headers[d] = AbsHeader{true, names};
            v.dropped.erase(d);
        }
    }

    void solve_ranks() {
        std::map<int, std::vector<const RankConstraint*>> exact, mins;
        for (const RankConstraint& c : constraints_) {
            (c.exact ? exact : mins)[c.var].push_back(&c);
        }
        for (const auto& [var, pins] : exact) {
            const RankConstraint* first = pins[0];
            for (const RankConstraint* p : pins) {
                if (p->value != first->value) {
                    out_.push_back(Diagnostic{
                        "shape-rank-unsolvable", Severity::Error, p->line, "",
                        "no array rank satisfies the workflow: " + first->site +
                            " and " + p->site +
                            " constrain the same upstream stream to "
                            "incompatible ranks",
                        "the producer's rank is unknown statically; the two "
                        "readers cannot both be right — re-wire one of them"});
                    return;  // one unsolvable report is enough
                }
            }
            if (first->value < 1) {
                out_.push_back(Diagnostic{
                    "shape-rank-unsolvable", Severity::Error, first->line, "",
                    "no array rank satisfies the workflow: " + first->site +
                        " requires a non-positive upstream rank",
                    ""});
                return;
            }
            const auto mit = mins.find(var);
            if (mit == mins.end()) continue;
            for (const RankConstraint* m : mit->second) {
                if (first->value < m->value) {
                    out_.push_back(Diagnostic{
                        "shape-rank-unsolvable", Severity::Error, m->line, "",
                        "no array rank satisfies the workflow: " + first->site +
                            " pins the upstream rank to " +
                            std::to_string(first->value) + ", but " + m->site +
                            " needs at least " + std::to_string(m->value),
                        "re-wire one of the two readers"});
                    return;
                }
            }
        }
    }
};

// ----------------------------------------------------------- fusion & config

void fusion_notes(const std::vector<Node>& nodes, const Options& opts,
                  std::vector<Diagnostic>& out) {
    if (!core::fusion_enabled(opts.fusion)) return;
    std::vector<core::FusionCandidate> candidates;
    candidates.reserve(nodes.size());
    for (const Node& n : nodes) {
        candidates.push_back(core::FusionCandidate{
            n.entry.component, n.entry.nprocs, util::ArgList(n.entry.args),
            n.ports});
    }
    // Mirror the runner: a stream whose durable log already has segments on
    // disk stays materialized so its history replays, and the fusion notes
    // must not promise a chain the runner would refuse to fuse.
    std::set<std::string> barriers;
    if (!opts.stream.durable.dir.empty()) {
        for (const core::FusionCandidate& c : candidates) {
            for (const std::string& s : c.ports.outputs) {
                if (durable::history_exists(opts.stream.durable.dir, s)) {
                    barriers.insert(s);
                }
            }
        }
    }
    const core::FusionPlan plan = core::plan_fusion(candidates, barriers);
    for (const core::FusedChain& chain : plan.chains) {
        std::string stages;
        for (const core::FusedStage& s : chain.stages) {
            stages += (stages.empty() ? "" : " -> ") +
                      describe(nodes[s.instance].entry, s.instance);
        }
        out.push_back(Diagnostic{
            "fusion-chain", Severity::Note,
            nodes[chain.head().instance].entry.line,
            describe(nodes[chain.head().instance].entry, chain.head().instance),
            "fuses into one unit (" + std::to_string(chain.stages.size()) +
                " stages): " + stages,
            "set SB_FUSE=off to run each stage as its own instance"});
    }
    for (const std::string& note : plan.notes) {
        out.push_back(Diagnostic{"fusion-boundary", Severity::Note, 0, "",
                                 note, ""});
    }
}

void config_rules(const std::vector<Node>& nodes, const Options& opts,
                  std::vector<Diagnostic>& out) {
    const flexpath::StreamOptions& s = opts.stream;

    if (opts.restart.mode == core::RestartPolicy::Mode::OnFailure &&
        s.retain_steps == 0 && s.durable.dir.empty() &&
        s.on_data_loss != flexpath::OnDataLoss::Fail) {
        out.push_back(Diagnostic{
            "config-replay-impossible", Severity::Warning, 0, "",
            std::string("RestartPolicy::on_failure with retain_steps=0, no "
                        "durable.dir, and on_data_loss=") +
                (s.on_data_loss == flexpath::OnDataLoss::Skip ? "skip"
                                                              : "zero-fill") +
                ": a restarted component has nothing to replay — dropped "
                "steps are silently lost (or zero-filled) across every "
                "restart",
            "set retain_steps > 0, configure a durable.dir, or keep "
            "on_data_loss=fail so the writer blocks instead of dropping"});
    }

    if (opts.restart.mode == core::RestartPolicy::Mode::OnFailure &&
        s.durable.dir.empty() && s.on_data_loss == flexpath::OnDataLoss::Fail) {
        out.push_back(Diagnostic{
            "config-durable-volatile", Severity::Warning, 0, "",
            "RestartPolicy::on_failure with no durable log: retained steps "
            "live only in process memory, so a restart survives a "
            "component failure but a *process* crash loses every "
            "buffered step — and on_data_loss=fail means the relaunched "
            "workflow starts over instead of resuming",
            "configure durable.dir (smartblock_run --durable=<dir>) so "
            "published steps land in a crash-consistent log the relaunch "
            "recovers from"});
    }

    if (s.on_data_loss == flexpath::OnDataLoss::ZeroFill) {
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            if (!nodes[i].contract.known || !nodes[i].contract.inputs_equal) {
                continue;
            }
            out.push_back(Diagnostic{
                "config-zerofill-validate", Severity::Warning,
                nodes[i].entry.line, describe(nodes[i].entry, i),
                "on_data_loss=zero-fill feeds a comparison component: a "
                "zero-filled step compares as a (false) mismatch instead of "
                "being skipped",
                "use on_data_loss=skip for validation pipelines, or check "
                "step_lossy in the consumer"});
        }
    }

    const double liveness_ms = flexpath::resolve_liveness_seconds(s) * 1000.0;
    if (liveness_ms > 0.0) {
        for (const fault::FaultSpec& f : opts.faults) {
            if (f.action != fault::Action::Delay || f.delay_ms < liveness_ms) {
                continue;
            }
            out.push_back(Diagnostic{
                "config-liveness-fault-delay", Severity::Warning, 0, "",
                "injected delay at '" + f.point + "' (" +
                    std::to_string(static_cast<long long>(f.delay_ms)) +
                    " ms) meets or exceeds the liveness timeout (" +
                    std::to_string(static_cast<long long>(liveness_ms)) +
                    " ms): the delayed peer will be declared dead "
                    "(PeerLivenessError) rather than slow",
                "raise liveness_ms above the injected delay, or shorten the "
                "delay"});
        }
    }
}

// ------------------------------------------------------------- finalization

int severity_rank(Severity s) {
    switch (s) {
        case Severity::Error: return 0;
        case Severity::Warning: return 1;
        case Severity::Note: return 2;
    }
    return 3;
}

Result finalize(std::vector<Diagnostic> diags, const std::set<std::string>& allow) {
    if (!allow.empty()) {
        diags.erase(std::remove_if(diags.begin(), diags.end(),
                                   [&](const Diagnostic& d) {
                                       return allow.count(d.rule) != 0;
                                   }),
                    diags.end());
    }
    std::stable_sort(diags.begin(), diags.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                         if (severity_rank(a.severity) != severity_rank(b.severity)) {
                             return severity_rank(a.severity) < severity_rank(b.severity);
                         }
                         return a.line < b.line;
                     });
    Result r;
    for (const Diagnostic& d : diags) {
        switch (d.severity) {
            case Severity::Error: ++r.errors; break;
            case Severity::Warning: ++r.warnings; break;
            case Severity::Note: ++r.notes; break;
        }
    }
    r.diagnostics = std::move(diags);
    return r;
}

// --------------------------------------------------- lint-config directives

/// Applies one `# lint-config:` token ("retain-steps=0"); returns an error
/// message or "".
std::string apply_directive(const std::string& tok, Options& opts) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) return "expected key=value, got '" + tok + "'";
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    try {
        if (key == "retain-steps") {
            opts.stream.retain_steps = std::stoull(val);
        } else if (key == "read-ahead") {
            opts.stream.read_ahead =
                (val == "off" || val == "0" || val == "false") ? 1 : std::stoull(val);
        } else if (key == "queue-capacity") {
            opts.stream.queue_capacity = std::stoull(val);
        } else if (key == "durable-dir") {
            opts.stream.durable.dir = val;
        } else if (key == "fsync") {
            if (!durable::parse_fsync_policy(val, opts.stream.durable)) {
                return "fsync: expected never|commit|interval:<ms>, got '" + val +
                       "'";
            }
        } else if (key == "liveness-ms") {
            opts.stream.liveness_ms = std::stod(val);
        } else if (key == "on-data-loss") {
            if (val == "fail") {
                opts.stream.on_data_loss = flexpath::OnDataLoss::Fail;
            } else if (val == "skip") {
                opts.stream.on_data_loss = flexpath::OnDataLoss::Skip;
            } else if (val == "zero-fill") {
                opts.stream.on_data_loss = flexpath::OnDataLoss::ZeroFill;
            } else {
                return "on-data-loss: expected fail|skip|zero-fill, got '" + val + "'";
            }
        } else if (key == "restart-policy") {
            if (val == "never") {
                opts.restart = core::RestartPolicy::never();
            } else if (val == "on-failure") {
                opts.restart = core::RestartPolicy::on_failure();
            } else {
                return "restart-policy: expected never|on-failure, got '" + val + "'";
            }
        } else if (key == "fuse") {
            if (val == "auto") {
                opts.fusion = core::FusionMode::Auto;
            } else if (val == "on") {
                opts.fusion = core::FusionMode::On;
            } else if (val == "off") {
                opts.fusion = core::FusionMode::Off;
            } else {
                return "fuse: expected auto|on|off, got '" + val + "'";
            }
        } else if (key == "fault") {
            opts.faults.push_back(fault::parse_spec(val));
        } else if (key == "allow") {
            opts.allow.insert(val);
        } else {
            return "unknown lint-config key '" + key + "'";
        }
    } catch (const std::exception& e) {
        return key + ": " + e.what();
    }
    return "";
}

}  // namespace

const char* severity_name(Severity s) {
    switch (s) {
        case Severity::Note: return "note";
        case Severity::Warning: return "warning";
        case Severity::Error: return "error";
    }
    return "?";
}

Result lint_wiring(const std::vector<core::LaunchEntry>& entries) {
    std::vector<Diagnostic> diags;
    wiring_rules(resolve(entries), /*fail_fast_only=*/true, diags);
    return finalize(std::move(diags), {});
}

Result lint_entries(const std::vector<core::LaunchEntry>& entries,
                    const Options& opts) {
    const std::vector<Node> nodes = resolve(entries);
    std::vector<Diagnostic> diags;
    wiring_rules(nodes, /*fail_fast_only=*/false, diags);

    const bool wired = std::none_of(
        diags.begin(), diags.end(),
        [](const Diagnostic& d) { return d.severity == Severity::Error; });
    if (wired) {
        // Contract interpretation and fusion notes both assume a
        // well-formed DAG with single-writer/single-reader streams.
        Interpreter(nodes, diags).run();
        fusion_notes(nodes, opts, diags);
    }
    config_rules(nodes, opts, diags);
    return finalize(std::move(diags), opts.allow);
}

Result lint_script(const std::string& text, const Options& opts) {
    Options effective = opts;
    std::vector<Diagnostic> directive_errors;
    {
        std::istringstream lines(text);
        std::string line;
        std::size_t lineno = 0;
        while (std::getline(lines, line)) {
            ++lineno;
            const auto at = line.find("# lint-config:");
            if (at == std::string::npos) continue;
            const util::ArgList toks =
                util::ArgList::split(line.substr(at + std::string("# lint-config:").size()));
            for (std::size_t t = 0; t < toks.size(); ++t) {
                const std::string err = apply_directive(toks.raw()[t], effective);
                if (!err.empty()) {
                    directive_errors.push_back(
                        Diagnostic{"graph-bad-arguments", Severity::Error,
                                   lineno, "", "lint-config: " + err, ""});
                }
            }
        }
    }

    std::vector<core::LaunchEntry> entries;
    try {
        entries = core::parse_launch_script(text);
    } catch (const util::ArgError& e) {
        directive_errors.push_back(Diagnostic{"graph-bad-arguments",
                                              Severity::Error, 0, "", e.what(),
                                              ""});
        return finalize(std::move(directive_errors), effective.allow);
    }
    Result r = lint_entries(entries, effective);
    if (!directive_errors.empty()) {
        for (Diagnostic& d : r.diagnostics) directive_errors.push_back(std::move(d));
        return finalize(std::move(directive_errors), effective.allow);
    }
    return r;
}

std::vector<fault::FaultSpec> parse_fault_specs(const std::string& value) {
    std::vector<fault::FaultSpec> specs;
    std::string entry;
    const auto flush = [&] {
        const auto a = entry.find_first_not_of(" \t");
        if (a == std::string::npos) {
            entry.clear();
            return;
        }
        const auto b = entry.find_last_not_of(" \t");
        const std::string trimmed = entry.substr(a, b - a + 1);
        entry.clear();
        if (trimmed.rfind("seed=", 0) == 0) return;
        specs.push_back(fault::parse_spec(trimmed));
    };
    for (const char c : value) {
        if (c == ';' || c == ',') {
            flush();
        } else {
            entry += c;
        }
    }
    flush();
    return specs;
}

int exit_code(const Result& result, bool strict) {
    if (result.errors > 0) return 2;
    if (result.warnings > 0) return strict ? 2 : 1;
    return 0;
}

bool lint_enabled_from_env() {
    const char* v = std::getenv("SB_LINT");
    if (!v) return true;
    const std::string s(v);
    return !(s == "off" || s == "0" || s == "false");
}

bool lint_enabled(core::LintMode mode) {
    switch (mode) {
        case core::LintMode::On: return true;
        case core::LintMode::Off: return false;
        case core::LintMode::Auto: return lint_enabled_from_env();
    }
    return true;
}

}  // namespace sb::lint
