#include "spans.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"

namespace pb {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<Span> g_spans;  // guarded by g_mu
thread_local std::uint64_t t_current = 0;

std::uint64_t thread_tag() {
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xFFFFFF;
}

}  // namespace

namespace tracer {

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> take() {
    const std::lock_guard lock(g_mu);
    return std::exchange(g_spans, {});
}

void write_chrome(const std::string& path, const std::vector<Span>& spans) {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"traceEvents\":[";
    bool first = true;
    char buf[160];
    for (const Span& s : spans) {
        out << (first ? "\n" : ",\n");
        first = false;
        std::snprintf(buf, sizeof buf,
                      "\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f",
                      static_cast<unsigned long long>(s.thread), s.t0 * 1e6,
                      (s.t1 - s.t0) * 1e6);
        out << "{\"name\":\"" << s.name << "\"," << buf << ",\"args\":{\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"step\":" << s.step << "}}";
    }
    out << "\n]}\n";
}

std::map<std::string, std::vector<double>> self_times(const std::vector<Span>& spans) {
    std::map<std::uint64_t, double> child_cover;
    for (const Span& s : spans) {
        if (s.parent != 0) child_cover[s.parent] += s.t1 - s.t0;
    }
    std::map<std::string, std::vector<double>> out;
    for (const Span& s : spans) {
        const auto it = child_cover.find(s.id);
        out[s.name].push_back(s.t1 - s.t0 - (it == child_cover.end() ? 0.0 : it->second));
    }
    return out;
}

}  // namespace tracer

ScopedSpan::ScopedSpan(const char* name, std::int64_t step) : name_(name), step_(step) {
    if (!tracer::enabled()) return;
    id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
    parent_ = t_current;
    t_current = id_;
    t0_ = sb::obs::steady_seconds();
}

ScopedSpan::~ScopedSpan() {
    if (id_ == 0) return;
    const double t1 = sb::obs::steady_seconds();
    t_current = parent_;
    const std::lock_guard lock(g_mu);
    g_spans.push_back(Span{name_, t0_, t1, id_, parent_, step_, thread_tag()});
}

}  // namespace pb
