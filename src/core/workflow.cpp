#include "core/workflow.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <set>
#include <thread>

#include "check/check.hpp"
#include "core/launch_script.hpp"
#include "fault/fault.hpp"
#include "flexpath/stream.hpp"
#include "lint/lint.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace sb::core {

Workflow::Workflow(flexpath::Fabric& fabric, flexpath::StreamOptions default_options)
    : fabric_(fabric), options_(default_options) {}

std::shared_ptr<StepStats> Workflow::add(const std::string& component, int nprocs,
                                         std::vector<std::string> args,
                                         std::size_t line) {
    if (nprocs <= 0) throw std::invalid_argument("Workflow::add: nprocs must be positive");
    if (!component_registered(component)) {
        (void)make_component(component);  // throws with the registered list
    }
    auto stats = std::make_shared<StepStats>();
    instances_.push_back(
        Instance{component, nprocs, util::ArgList(std::move(args)), stats, {}, 0, line});
    return stats;
}

int Workflow::total_procs() const noexcept {
    int n = 0;
    for (const auto& i : instances_) n += i.nprocs;
    return n;
}

std::string Workflow::describe(std::size_t i) const {
    const Instance& inst = instances_.at(i);
    return inst.component + " x" + std::to_string(inst.nprocs);
}

std::string Workflow::instance_label(std::size_t i) const {
    return instances_.at(i).component + "#" + std::to_string(i);
}

Ports Workflow::ports_of(std::size_t i) const {
    const Instance& inst = instances_.at(i);
    try {
        return make_component(inst.component)->ports(inst.args);
    } catch (...) {
        return Ports{{}, {}, false};
    }
}

FusionPlan Workflow::fusion_plan() const {
    if (!fusion_enabled(fusion_)) return {};
    std::vector<FusionCandidate> candidates;
    candidates.reserve(instances_.size());
    for (std::size_t i = 0; i < instances_.size(); ++i) {
        candidates.push_back(FusionCandidate{instances_[i].component,
                                             instances_[i].nprocs, instances_[i].args,
                                             ports_of(i)});
    }
    // A stream with on-disk durable history is a fusion barrier: eliding it
    // would skip the replay a cold-restarted or late-joining reader resumes
    // from (the fused unit would pick up at the *input* stream's acked
    // cursor instead).  Fresh runs have no segments yet, so fusion — which
    // never materializes the interior stream — is unaffected.
    std::set<std::string> barriers;
    if (!options_.durable.dir.empty()) {
        for (const FusionCandidate& c : candidates) {
            for (const std::string& s : c.ports.outputs) {
                if (durable::history_exists(options_.durable.dir, s)) {
                    barriers.insert(s);
                }
            }
        }
    }
    return plan_fusion(candidates, barriers);
}

void Workflow::write_trace(const std::string& path) const {
    if (!ran_) throw std::logic_error("Workflow::write_trace: run() first");
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("write_trace: cannot write '" + path + "'");
    out << "[\n";
    bool first = true;
    const auto emit = [&](const std::string& event) {
        out << (first ? "" : ",\n") << event;
        first = false;
    };
    for (std::size_t i = 0; i < instances_.size(); ++i) {
        const Instance& inst = instances_[i];
        // Process metadata: name the track after the component instance.
        emit(R"({"ph":"M","name":"process_name","pid":)" + std::to_string(i) +
             R"(,"args":{"name":")" + obs::json_escape(describe(i)) + "\"}}");
        for (const StepStats::Sample& s : inst.stats->samples()) {
            const double start_us = (s.t_end - s.seconds - epoch_) * 1e6;
            emit(R"({"ph":"X","name":"step )" + std::to_string(s.step) +
                 R"(","pid":)" + std::to_string(i) + R"(,"tid":)" +
                 std::to_string(s.rank) + R"(,"ts":)" + obs::json_number(start_us) +
                 R"(,"dur":)" + obs::json_number(s.seconds * 1e6) +
                 R"(,"args":{"bytes_in":)" + std::to_string(s.bytes_in) +
                 R"(,"bytes_out":)" + std::to_string(s.bytes_out) + "}}");
        }
    }

    // Flow events: one arrow per (stream, step) from the producing
    // instance's step slice to the consuming instance's, so a viewer can
    // follow one step through the pipeline.  Chrome binds "s"/"f" flow
    // endpoints to the slice enclosing (pid, tid, ts), so the timestamps
    // are nudged just inside the slices (end of producer, start of
    // consumer).
    {
        std::map<std::string, std::size_t> producer_of;
        std::map<std::string, std::size_t> consumer_of;
        for (std::size_t i = 0; i < instances_.size(); ++i) {
            const Ports ports = ports_of(i);
            if (!ports.known) continue;
            for (const std::string& s : ports.outputs) producer_of.emplace(s, i);
            for (const std::string& s : ports.inputs) consumer_of.emplace(s, i);
        }
        // One representative slice per (instance, step): the lowest rank.
        std::vector<std::map<std::uint64_t, StepStats::Sample>> rep(
            instances_.size());
        for (std::size_t i = 0; i < instances_.size(); ++i) {
            for (const StepStats::Sample& s : instances_[i].stats->samples()) {
                const auto it = rep[i].find(s.step);
                if (it == rep[i].end() || s.rank < it->second.rank) {
                    rep[i][s.step] = s;
                }
            }
        }
        std::uint64_t flow_id = 0;
        for (const auto& [stream, pi] : producer_of) {
            const auto ci = consumer_of.find(stream);
            if (ci == consumer_of.end()) continue;
            // Anchor the arrow tail at the publish instant — the Produce
            // span's end, recorded just before the writer submits — when
            // this run recorded spans.  The consumer's acquire is causally
            // after the submit, so the arrow always points forward in time;
            // the producer's *slice* keeps running past the push (ack
            // bookkeeping), so the slice end may postdate the consumer's
            // slice start under pipelining.
            std::map<std::uint64_t, std::map<int, double>> publish_t;
            for (const obs::StepTimeline& tl :
                 obs::SpanStore::global().timelines(stream, epoch_)) {
                for (const obs::StepSegment& seg : tl.segments) {
                    if (seg.kind != obs::SegmentKind::Produce) continue;
                    double& slot = publish_t[tl.step][seg.rank];
                    slot = std::max(slot, seg.t1);
                }
            }
            for (const auto& [step, ps] : rep[pi]) {
                const auto cs = rep[ci->second].find(step);
                if (cs == rep[ci->second].end()) continue;
                // No recorded publish instant (SB_METRICS=off, or the step
                // aged out of the span window): skip the arrow rather than
                // guess from slice ends, which can point backwards under
                // pipelining.
                const auto pstep = publish_t.find(step);
                if (pstep == publish_t.end()) continue;
                const auto prank = pstep->second.find(ps.rank);
                if (prank == pstep->second.end()) continue;
                const std::string fname =
                    obs::json_escape(stream + " step " + std::to_string(step));
                const std::string id = std::to_string(flow_id++);
                const double p_end_us = (ps.t_end - epoch_) * 1e6;
                const double p_nudge = std::min(ps.seconds * 1e6, 1.0) / 2;
                // Clamped inside the slice so the viewer still binds the
                // endpoint to the producer's step box.
                const double start_us = (ps.t_end - ps.seconds - epoch_) * 1e6;
                const double p_ts =
                    std::clamp((prank->second - epoch_) * 1e6,
                               start_us + p_nudge, p_end_us - p_nudge);
                const double c_start_us =
                    (cs->second.t_end - cs->second.seconds - epoch_) * 1e6;
                const double c_ts =
                    c_start_us + std::min(cs->second.seconds * 1e6, 1.0) / 2;
                emit(R"({"ph":"s","cat":"step-flow","name":")" + fname +
                     R"(","pid":)" + std::to_string(pi) + R"(,"tid":)" +
                     std::to_string(ps.rank) + R"(,"ts":)" +
                     obs::json_number(p_ts) + R"(,"id":)" + id + "}");
                emit(R"({"ph":"f","bp":"e","cat":"step-flow","name":")" + fname +
                     R"(","pid":)" + std::to_string(ci->second) + R"(,"tid":)" +
                     std::to_string(cs->second.rank) + R"(,"ts":)" +
                     obs::json_number(c_ts) + R"(,"id":)" + id + "}");
            }
        }
    }

    // Transport track: queue-depth counter tracks and stall slices recorded
    // by the FlexPath layer during this run (filtered by the run epoch so a
    // previous run in the same process doesn't leak in).
    const auto events = obs::TraceLog::global().events_after(epoch_);
    if (!events.empty()) {
        const std::size_t pid = instances_.size();
        emit(R"({"ph":"M","name":"process_name","pid":)" + std::to_string(pid) +
             R"(,"args":{"name":"transport"}})");
        std::uint64_t async_id = 0;
        for (const obs::TraceEvent& ev : events) {
            const std::string name =
                obs::json_escape(ev.name + " " + ev.stream);
            const std::string ts = obs::json_number((ev.t0 - epoch_) * 1e6);
            if (ev.kind == obs::TraceEvent::Kind::Counter) {
                emit(R"({"ph":"C","name":")" + name + R"(","pid":)" +
                     std::to_string(pid) + R"(,"ts":)" + ts +
                     R"(,"args":{"value":)" + obs::json_number(ev.value) + "}}");
            } else {
                const std::string common =
                    R"(,"cat":")" + obs::json_escape(ev.category) +
                    R"(","name":")" + name + R"(","pid":)" + std::to_string(pid) +
                    R"(,"tid":0,"id":)" + std::to_string(async_id++);
                emit(R"({"ph":"b")" + common + R"(,"ts":)" + ts +
                     (ev.id ? R"(,"args":{"step":)" + std::to_string(ev.id) + "}"
                            : std::string{}) +
                     "}");
                emit(R"({"ph":"e")" + common + R"(,"ts":)" +
                     obs::json_number((ev.t1 - epoch_) * 1e6) + "}");
            }
        }
    }
    out << "\n]\n";
}

void Workflow::write_metrics(const std::string& path) const {
    if (!ran_) throw std::logic_error("Workflow::write_metrics: run() first");
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("write_metrics: cannot write '" + path + "'");
    std::string extra =
        "\"critical_path\": " + obs::critical_path_to_json(critical_path());
    if (sampler_) {
        extra += ",\n  \"timeseries\": " +
                 obs::timeseries_to_json(sampler_->snapshot(), sampler_->interval_ms());
    }
    obs::write_metrics_json(out, obs::Registry::global().snapshot(), extra);
}

std::string Workflow::metrics_summary() const {
    auto& reg = obs::Registry::global();
    std::string out = obs::format_metrics_table(reg.snapshot(), reg.uptime_seconds());
    if (ran_) {
        const obs::CriticalPathSummary cp = critical_path();
        if (cp.steps > 0) {
            out += "\nworkflow.critical_path\n";
            out += obs::format_critical_path(cp);
        }
    }
    return out;
}

obs::CriticalPathSummary Workflow::critical_path() const {
    if (!ran_) throw std::logic_error("Workflow::critical_path: run() first");
    if (cpath_) return *cpath_;
    auto& store = obs::SpanStore::global();
    // No step spans for this run (SB_METRICS=off): report "nothing
    // recorded" rather than attributing from the bare StepStats compute
    // times, which without the transport waits would misname whichever
    // instance happens to be slowest as the limiter.
    bool any_spans = false;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
        if (!store.timelines(instance_label(i), epoch_).empty()) {
            any_spans = true;
            break;
        }
    }
    if (!any_spans) {
        cpath_ = obs::CriticalPathSummary{};
        return *cpath_;
    }
    std::vector<obs::InstanceSteps> data;
    data.reserve(instances_.size());
    for (std::size_t i = 0; i < instances_.size(); ++i) {
        obs::InstanceSteps is;
        is.instance = instance_label(i);
        const Ports ports = ports_of(i);
        if (ports.known) {
            is.inputs = ports.inputs;
            is.outputs = ports.outputs;
        }
        // Kernel time per step: communicator completion time (max over
        // ranks) from the instance's stats sink.
        std::map<std::uint64_t, obs::InstanceSteps::Step> steps;
        for (const StepStats::StepRow& row : instances_[i].stats->per_step()) {
            obs::InstanceSteps::Step& st = steps[row.step];
            st.step = row.step;
            st.compute = row.max_seconds;
        }
        // Transport waits per step from this run's span timelines (max
        // over the segments — i.e. over the recording ranks — of a step).
        const auto merge = [&](const std::vector<std::string>& streams,
                               obs::SegmentKind kind, bool into_wait_in) {
            for (const std::string& name : streams) {
                for (const obs::StepTimeline& tl : store.timelines(name, epoch_)) {
                    double worst = 0.0;
                    for (const obs::StepSegment& seg : tl.segments) {
                        if (seg.kind == kind) {
                            worst = std::max(worst, seg.seconds());
                        }
                    }
                    if (worst <= 0.0) continue;
                    obs::InstanceSteps::Step& st = steps[tl.step];
                    st.step = tl.step;
                    double& slot =
                        into_wait_in ? st.wait_in[name] : st.bp_out[name];
                    slot = std::max(slot, worst);
                }
            }
        };
        merge(is.inputs, obs::SegmentKind::WaitIn, true);
        merge(is.outputs, obs::SegmentKind::BackpressureOut, false);
        // Components time a step from after acquire to after submit, so the
        // measured kernel time *includes* any push wait on the outputs;
        // subtract it, or a downstream-blocked instance would always read
        // as compute-bound and the walk could never move downstream.
        for (auto& [step, st] : steps) {
            double pushed = 0.0;
            for (const auto& [stream, w] : st.bp_out) pushed += w;
            st.compute = std::max(0.0, st.compute - pushed);
        }
        is.steps.reserve(steps.size());
        for (auto& [step, st] : steps) is.steps.push_back(std::move(st));
        data.push_back(std::move(is));
    }
    cpath_ = obs::analyze_critical_path(data);
    return *cpath_;
}

std::string Workflow::report() const {
    return obs::format_critical_path(critical_path());
}

namespace {

std::string what_of(const std::exception_ptr& e) {
    try {
        std::rethrow_exception(e);
    } catch (const std::exception& ex) {
        return ex.what();
    } catch (...) {
        return "unknown exception";
    }
}

}  // namespace

bool Workflow::try_recover(const std::vector<std::size_t>& members, int attempt,
                           const RestartPolicy& policy, const std::exception_ptr& err,
                           bool another_failed) {
    std::string name = instances_[members.front()].component;
    for (std::size_t k = 1; k < members.size(); ++k) {
        name += "+" + instances_[members[k]].component;
    }
    if (policy.mode != RestartPolicy::Mode::OnFailure) return false;
    if (attempt >= policy.max_attempts) {
        SB_LOG(Error) << "workflow: instance '" << name
                      << "' exhausted " << policy.max_attempts << " restart(s)";
        return false;
    }
    // Another instance already failed fatally: the fabric is (or is about to
    // be) aborted, so relaunching would only produce a secondary unwind.
    if (another_failed) return false;
    try {
        std::rethrow_exception(err);
    } catch (const flexpath::StreamAborted&) {
        return false;  // secondary: a peer died, nothing to recover here
    } catch (const util::ArgError&) {
        return false;  // deterministic config bug; a relaunch repeats it
    } catch (...) {
    }
    // Recovery needs the unit's external stream endpoints: the union of the
    // members' ports minus the streams internal to a fused chain (named by
    // both a member input and a member output — they never materialize).
    std::set<std::string> in_set;
    std::set<std::string> out_set;
    for (const std::size_t m : members) {
        const Ports ports = ports_of(m);
        if (!ports.known) {
            SB_LOG(Error) << "workflow: instance '" << name
                          << "' has unknown ports; cannot recover its streams";
            return false;
        }
        in_set.insert(ports.inputs.begin(), ports.inputs.end());
        out_set.insert(ports.outputs.begin(), ports.outputs.end());
    }
    std::vector<std::string> inputs;
    std::vector<std::string> outputs;
    for (const std::string& s : in_set) {
        if (!out_set.count(s)) inputs.push_back(s);
    }
    for (const std::string& s : out_set) {
        if (!in_set.count(s)) outputs.push_back(s);
    }

    const double t_fail = obs::steady_seconds();
    std::uint64_t resume = 0;
    try {
        // Output streams roll back to their last fully assembled step; the
        // relaunched incarnation resumes submitting exactly there.  A source
        // (no inputs) deterministically regenerates from step 0, so its
        // first `resume` submissions are suppressed stream-side instead.
        for (const std::string& out : outputs) {
            auto s = fabric_.get(out);
            s->detach_writer(/*source_replays_from_zero=*/inputs.empty());
            resume = std::max(resume, s->writer_resume_step());
        }
        // Input streams detach (voiding partial acknowledgements) and start
        // retaining steps for replay.  A middle component consumed one input
        // step per output step (SmartBlock components are step-aligned, and a
        // fused chain steps all stages per input block), so inputs that fed
        // the `resume` already-assembled output steps are force-acknowledged
        // rather than replayed — replaying them would duplicate downstream
        // data.
        for (const std::string& in : inputs) {
            auto s = fabric_.get(in);
            s->detach_reader();
            if (!outputs.empty()) s->skip_reader_to(resume);
        }
    } catch (const std::exception& e) {
        SB_LOG(Error) << "workflow: recovery of '" << name
                      << "' failed: " << e.what();
        return false;
    }

    for (const std::size_t m : members) {
        ++instances_[m].restarts;
        obs::Registry::global()
            .counter("workflow.component_restarts",
                     {{"component", instances_[m].component}})
            .inc();
    }
    SB_LOG(Warn) << "workflow: restarting '" << name << "' (attempt "
                 << (attempt + 1) << "/" << policy.max_attempts
                 << "): " << what_of(err);

    // Exponential backoff with deterministic jitter: hashed from (instance,
    // attempt) instead of a clock-seeded RNG so chaos tests are repeatable.
    double delay_ms = policy.backoff_base_ms *
                      std::pow(policy.backoff_factor, static_cast<double>(attempt));
    delay_ms = std::min(delay_ms, policy.backoff_max_ms);
    std::uint64_t h = (members.front() + 1) * 0x9e3779b97f4a7c15ull ^
                      (static_cast<std::uint64_t>(attempt) + 1) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 29;
    const double jitter = 0.5 + static_cast<double>(h % 1000) / 1000.0;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms * jitter));
    if (obs::enabled()) {
        // Tagged with the resume step, so the trace links the restart slice
        // to the step timelines the replacement incarnation continues from.
        obs::TraceLog::global().slice("restart", name, "restart",
                                      t_fail, obs::steady_seconds(), resume);
    }
    return true;
}

void Workflow::run() {
    if (ran_) throw std::logic_error("Workflow::run: already ran (build a new workflow)");
    if (instances_.empty()) throw std::logic_error("Workflow::run: no instances added");

    // Fail-fast wiring check (SB_LINT / set_lint): a mis-wired graph becomes
    // an exception with smartblock_lint's diagnostics instead of a deadlock.
    // Only the certainly-fatal wiring rules gate here — shape/config findings
    // stay advisory so run-time semantics match the seed exactly.
    if (lint::lint_enabled(lint_)) {
        std::vector<LaunchEntry> entries;
        entries.reserve(instances_.size());
        for (const Instance& inst : instances_) {
            LaunchEntry e;
            e.component = inst.component;
            e.nprocs = inst.nprocs;
            e.args = inst.args.raw();
            e.line = inst.line;
            entries.push_back(std::move(e));
        }
        lint::Result wiring = lint::lint_wiring(entries);
        if (wiring.errors > 0) {
            throw lint::LintError("Workflow::run: workflow graph is mis-wired\n" +
                                      lint::render_text(wiring),
                                  std::move(wiring));
        }
    }
    ran_ = true;

    util::WallTimer timer;
    epoch_ = steady_now_seconds();
    std::vector<std::exception_ptr> errors(instances_.size());
    std::atomic<bool> failed{false};

    // Execution units: one per fused chain, one per remaining instance.  A
    // remaining fusible instance runs as a one-stage chain on the same
    // executor (Component::run), so an empty plan (SB_FUSE=off / nothing
    // fusible) differs from a fused run only in the streams it materializes.
    const FusionPlan fplan = fusion_plan();
    struct UnitSpec {
        std::vector<std::size_t> members;       // instance indices, chain order
        const FusedChain* chain = nullptr;      // null: standalone instance
    };
    std::vector<UnitSpec> units;
    units.reserve(instances_.size());
    for (const FusedChain& chain : fplan.chains) {
        UnitSpec u;
        u.chain = &chain;
        for (const FusedStage& st : chain.stages) u.members.push_back(st.instance);
        units.push_back(std::move(u));
    }
    for (std::size_t i = 0; i < instances_.size(); ++i) {
        if (!fplan.fused(i)) units.push_back(UnitSpec{{i}, nullptr});
    }
    for (const UnitSpec& u : units) {
        if (!u.chain) continue;
        std::string label = instance_label(u.members.front());
        for (std::size_t k = 1; k < u.members.size(); ++k) {
            label += "+" + instance_label(u.members[k]);
        }
        SB_LOG(Info) << "workflow: fused " << label;
    }

    // ---- cold restart (durable step log) ---------------------------------
    // With a durable log configured, open every external stream's log before
    // launching anything: a relaunched *process* then resumes exactly where
    // the warm-restart path (try_recover) would have resumed a relaunched
    // thread group.  Sources suppress their deterministic regeneration of
    // already-logged steps; a middle unit whose outputs already assembled
    // `resume` steps fast-forwards its inputs past the steps that fed them.
    bool cold_resume = false;
    if (!options_.durable.dir.empty()) {
        for (const UnitSpec& unit : units) {
            std::set<std::string> in_set;
            std::set<std::string> out_set;
            bool known = true;
            for (const std::size_t m : unit.members) {
                const Ports ports = ports_of(m);
                if (!ports.known) {
                    known = false;
                    break;
                }
                in_set.insert(ports.inputs.begin(), ports.inputs.end());
                out_set.insert(ports.outputs.begin(), ports.outputs.end());
            }
            if (!known) continue;  // attach_writer opens lazily instead
            std::vector<std::string> inputs;
            std::vector<std::string> outputs;
            for (const std::string& s : in_set) {
                if (!out_set.count(s)) inputs.push_back(s);
            }
            for (const std::string& s : out_set) {
                if (!in_set.count(s)) outputs.push_back(s);
            }
            std::uint64_t resume = 0;
            for (const std::string& out : outputs) {
                auto s = fabric_.get(out);
                s->open_durable(options_);
                if (const durable::Log* log = s->durable_log()) {
                    if (log->next_step() > 0) cold_resume = true;
                }
                resume = std::max(resume, s->writer_resume_step());
                if (inputs.empty()) s->set_cold_source_replay();
            }
            for (const std::string& in : inputs) {
                auto s = fabric_.get(in);
                s->open_durable(options_);
                if (const durable::Log* log = s->durable_log()) {
                    if (log->next_step() > 0) cold_resume = true;
                }
                // One input step fed each already-assembled output step
                // (SmartBlock components are step-aligned); acknowledge
                // those instead of replaying them into duplicates.
                if (!outputs.empty()) {
                    s->skip_reader_to(s->reader_cursor_for_step(resume));
                }
            }
        }
        if (cold_resume) {
            SB_LOG(Warn) << "workflow: cold restart — resuming from durable "
                            "step logs in '"
                         << options_.durable.dir << "'";
        }
    }

    {
        std::vector<std::jthread> drivers;
        drivers.reserve(units.size());
        for (const UnitSpec& unit : units) {
            drivers.emplace_back([this, &unit, &errors, &failed, cold_resume] {
                const std::vector<std::size_t>& members = unit.members;
                const std::size_t lead = members.front();
                const Instance& inst = instances_[lead];
                // Unit policy: the most conservative of the members' — one
                // Never member pins the whole unit, and the attempt budget is
                // the tightest member's.
                RestartPolicy policy = inst.policy ? *inst.policy : policy_;
                for (std::size_t k = 1; k < members.size(); ++k) {
                    const Instance& mi = instances_[members[k]];
                    const RestartPolicy p = mi.policy ? *mi.policy : policy_;
                    if (p.mode == RestartPolicy::Mode::Never) {
                        policy.mode = RestartPolicy::Mode::Never;
                    }
                    policy.max_attempts = std::min(policy.max_attempts, p.max_attempts);
                }
                // Label the communicator with the instance index: describe()
                // can collide when a component appears twice.
                std::string label = inst.component + "#" + std::to_string(lead);
                for (std::size_t k = 1; k < members.size(); ++k) {
                    label += "+" + instance_label(members[k]);
                }
                for (int attempt = 0;; ++attempt) {
                    try {
                        mpi::run_ranks(
                            inst.nprocs,
                            [&](mpi::Communicator& comm) {
                                if (unit.chain) {
                                    std::vector<FusedStageHooks> hooks;
                                    hooks.reserve(members.size());
                                    for (const std::size_t m : members) {
                                        hooks.push_back(FusedStageHooks{
                                            instance_label(m),
                                            instances_[m].stats.get()});
                                    }
                                    RunContext ctx{fabric_, comm, nullptr, options_};
                                    ctx.component = inst.component;
                                    ctx.instance = instance_label(lead);
                                    ctx.attempt = attempt;
                                    ctx.resume = cold_resume;
                                    const obs::ScopedActor actor(ctx.instance);
                                    // Every member is (re)launched with the
                                    // unit, so each keeps its own run-level
                                    // fault point.
                                    for (const std::size_t m : members) {
                                        fault::hit("component.run",
                                                   instances_[m].component);
                                    }
                                    run_fused_chain(ctx, *unit.chain, hooks);
                                } else {
                                    auto component = make_component(inst.component);
                                    RunContext ctx{fabric_, comm, inst.stats.get(),
                                                   options_};
                                    ctx.component = inst.component;
                                    ctx.instance = instance_label(lead);
                                    ctx.attempt = attempt;
                                    ctx.resume = cold_resume;
                                    // Transport spans recorded on this rank's
                                    // thread carry the instance as their actor.
                                    const obs::ScopedActor actor(ctx.instance);
                                    fault::hit("component.run", inst.component);
                                    component->run(ctx, inst.args);
                                }
                            },
                            label + (attempt ? ".r" + std::to_string(attempt) : ""));
                        return;  // this unit drained
                    } catch (...) {
                        const std::exception_ptr err = std::current_exception();
                        if (try_recover(members, attempt, policy, err, failed.load())) {
                            continue;  // relaunch the unit
                        }
                        errors[lead] = err;
                        failed.store(true);
                        // Unblock the rest of the graph: every stream wakes
                        // its waiters with StreamAborted.
                        fabric_.abort_all();
                        SB_LOG(Error) << "workflow: instance '" << inst.component
                                      << "' failed; aborting fabric";
                        return;
                    }
                }
            });
        }
    }  // all drivers join

    elapsed_ = timer.seconds();

    if (check::enabled()) {
        const auto diags = check::diagnostics();
        if (!diags.empty()) {
            SB_LOG(Warn) << "workflow: sb::check recorded " << diags.size()
                         << " diagnostic(s) during this run (see earlier "
                            "sb::check log lines)";
        }
    }

    if (failed.load()) {
        // Prefer a root-cause error over secondary StreamAborted unwinds —
        // but never silently drop the secondaries: distinct failures in
        // several instances are all part of the diagnosis.
        std::exception_ptr first;
        std::exception_ptr root;
        std::vector<std::string> suppressed;
        std::size_t root_index = 0;
        for (std::size_t i = 0; i < errors.size(); ++i) {
            const auto& e = errors[i];
            if (!e) continue;
            if (!first) first = e;
            bool aborted_unwind = false;
            try {
                std::rethrow_exception(e);
            } catch (const flexpath::StreamAborted&) {
                aborted_unwind = true;
            } catch (...) {
            }
            if (aborted_unwind) continue;
            if (!root) {
                root = e;
                root_index = i;
            } else {
                suppressed.push_back("[" + describe(i) + "] " + what_of(e));
            }
        }
        if (!root) std::rethrow_exception(first);  // only secondary unwinds
        if (suppressed.empty()) std::rethrow_exception(root);  // preserve type
        std::string msg = "[" + describe(root_index) + "] " + what_of(root) +
                          " (+" + std::to_string(suppressed.size()) +
                          " suppressed secondary error(s):";
        for (std::size_t k = 0; k < suppressed.size() && k < 3; ++k) {
            msg += " | " + suppressed[k];
        }
        if (suppressed.size() > 3) msg += " | ...";
        msg += ")";
        throw WorkflowError(msg, std::move(suppressed));
    }
}

}  // namespace sb::core
