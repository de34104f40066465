#include "durable/log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "fault/fault.hpp"
#include "ffs/crc32c.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace sb::durable {

namespace {

namespace fs = std::filesystem;

// Frame constants.  The fixed header is magic(4) kind(1) step(8)
// layout_gen(8) meta_len(4) payload_len(8) crc_head(4) = 37 bytes; the tail
// is crc_payload(4) commit(4) = 8.  crc_head covers kind..payload_len plus
// the meta bytes (everything the reader must trust before sizing the
// payload); crc_payload covers the payload alone.
constexpr std::uint32_t kMagic = 0x474C4253u;   // "SBLG" little-endian
constexpr std::uint32_t kCommit = 0x31544D43u;  // "CMT1" little-endian
constexpr std::size_t kHeadBytes = 37;
constexpr std::size_t kTailBytes = 8;
constexpr std::uint8_t kKindStep = 1;
constexpr std::uint8_t kKindAck = 2;
constexpr std::uint8_t kKindEos = 3;

void put_u32(ffs::Bytes& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
        out.push_back(std::byte((v >> (8 * i)) & 0xFFu));
    }
}

void put_u64(ffs::Bytes& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        out.push_back(std::byte((v >> (8 * i)) & 0xFFu));
    }
}

std::uint32_t get_u32(std::span<const std::byte> buf, std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= std::uint32_t(std::to_integer<std::uint8_t>(buf[at + i])) << (8 * i);
    }
    return v;
}

std::uint64_t get_u64(std::span<const std::byte> buf, std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= std::uint64_t(std::to_integer<std::uint8_t>(buf[at + i])) << (8 * i);
    }
    return v;
}

/// Whether the frame header at `at` (with `meta_len` metadata bytes, all
/// inside `buf`) matches its crc_head.
bool head_crc_matches(std::span<const std::byte> buf, std::size_t at,
                      std::uint64_t meta_len) {
    std::uint32_t c = ffs::crc32c_init();
    c = ffs::crc32c_update(c, buf.subspan(at + 4, 29));
    c = ffs::crc32c_update(c, buf.subspan(at + kHeadBytes, meta_len));
    return ffs::crc32c_final(c) == get_u32(buf, at + 33);
}

/// Whether a frame whose header checksum verifies starts anywhere in
/// buf[from, end): proof that the bytes before it are corrupt, not torn.
bool verified_frame_from(std::span<const std::byte> buf, std::size_t from) {
    for (std::size_t at = from; at + kHeadBytes <= buf.size(); ++at) {
        if (get_u32(buf, at) != kMagic) continue;
        const std::uint64_t meta_len = get_u32(buf, at + 21);
        if (kHeadBytes + meta_len > buf.size() - at) continue;
        if (head_crc_matches(buf, at, meta_len)) return true;
    }
    return false;
}

std::string safe_name(const std::string& stream) {
    std::string safe = stream;
    for (char& c : safe) {
        if (c == '/' || c == '\\') c = '_';
    }
    return safe;
}

std::string seg_path(const std::string& dir, const std::string& safe,
                     std::uint64_t seg) {
    return dir + "/" + safe + "." + std::to_string(seg) + ".sblog";
}

/// Segment ids present for `safe` in `dir`, ascending.
std::vector<std::uint64_t> find_segments(const std::string& dir,
                                         const std::string& safe) {
    std::vector<std::uint64_t> ids;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        const std::string fname = entry.path().filename().string();
        const std::string prefix = safe + ".";
        const std::string suffix = ".sblog";
        if (fname.size() <= prefix.size() + suffix.size()) continue;
        if (fname.compare(0, prefix.size(), prefix) != 0) continue;
        if (fname.compare(fname.size() - suffix.size(), suffix.size(), suffix) != 0)
            continue;
        const std::string mid = fname.substr(
            prefix.size(), fname.size() - prefix.size() - suffix.size());
        if (mid.empty() ||
            mid.find_first_not_of("0123456789") != std::string::npos)
            continue;
        ids.push_back(std::stoull(mid));
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

// What the scanner reconstructs (shared by Log recovery and scan_dir).
struct FrameInfo {
    std::uint64_t segment = 0;
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::uint64_t layout_gen = 0;
    bool bad = false;      // payload (or commit) corrupt; meta intact
    ffs::Bytes meta;       // kept only when bad (the ZeroFill material)
};

struct SegInfo {
    std::uint64_t id = 0;
    std::uint64_t bytes = 0;
    std::uint64_t max_step = 0;
    bool has_steps = false;
    std::uint64_t max_ack = 0;
    bool has_eos = false;
};

struct ScanResult {
    std::map<std::uint64_t, FrameInfo> steps;
    std::vector<SegInfo> segments;
    std::uint64_t acked = 0;
    /// 1 + the highest step any frame accounts for: step frames, the Ack
    /// frontier, and the step count an Eos frame records.
    std::uint64_t next_step = 0;
    bool complete = false;
    std::uint64_t max_layout_gen = 0;
    std::uint64_t torn_bytes = 0;
    std::uint64_t log_bytes = 0;
    std::vector<std::string> notes;
};

ffs::Bytes read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) return {};
    const auto size = in.tellg();
    ffs::Bytes buf(static_cast<std::size_t>(size));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
    return buf;
}

/// Validates every frame of every segment, last-wins on duplicate steps.
/// With `repair` set, a torn tail of the *last* segment is truncated back
/// to its last committed frame (the crash-recovery contract); without it
/// the tear is only reported (--recover must not mutate the log).
ScanResult scan_stream(const std::string& dir, const std::string& safe,
                       const std::vector<std::uint64_t>& seg_ids, bool repair) {
    ScanResult out;
    for (std::size_t si = 0; si < seg_ids.size(); ++si) {
        const std::uint64_t id = seg_ids[si];
        const bool last = si + 1 == seg_ids.size();
        const std::string path = seg_path(dir, safe, id);
        ffs::Bytes buf = read_file(path);
        SegInfo seg;
        seg.id = id;
        seg.bytes = buf.size();
        std::size_t off = 0;

        // Handles an unparseable region starting at `at` that runs to EOF:
        // a torn tail on the last segment (truncatable), garbage otherwise.
        const auto tail = [&](std::size_t at) {
            const std::uint64_t torn = buf.size() - at;
            if (last) {
                out.torn_bytes += torn;
                if (repair) {
                    std::error_code ec;
                    fs::resize_file(path, at, ec);
                    seg.bytes = at;
                    out.notes.push_back("segment " + std::to_string(id) +
                                        ": truncated torn tail (" +
                                        std::to_string(torn) + " bytes)");
                } else {
                    out.notes.push_back("segment " + std::to_string(id) +
                                        ": torn tail (" + std::to_string(torn) +
                                        " bytes past last commit)");
                }
            } else {
                out.notes.push_back("segment " + std::to_string(id) +
                                    ": unparseable tail (" +
                                    std::to_string(torn) + " bytes)");
            }
        };

        while (off < buf.size()) {
            const std::size_t rem = buf.size() - off;
            // A frame header that can't fit, a bad magic, or a corrupt
            // header resyncs on the next magic (quarantining the gap) —
            // or ends the segment if none follows.
            const auto resync = [&](std::size_t from) -> bool {
                std::size_t at = from;
                while (at + 4 <= buf.size() && get_u32(buf, at) != kMagic) ++at;
                if (at + 4 > buf.size()) {
                    tail(off);
                    return false;
                }
                out.notes.push_back("segment " + std::to_string(id) +
                                    ": skipped " + std::to_string(at - off) +
                                    " corrupt bytes at offset " +
                                    std::to_string(off));
                off = at;
                return true;
            };

            if (rem < kHeadBytes) {
                tail(off);
                break;
            }
            if (get_u32(buf, off) != kMagic) {
                if (!resync(off + 1)) break;
                continue;
            }
            const std::uint8_t kind = std::to_integer<std::uint8_t>(buf[off + 4]);
            const std::uint64_t step = get_u64(buf, off + 5);
            const std::uint64_t layout_gen = get_u64(buf, off + 13);
            const std::uint64_t meta_len = get_u32(buf, off + 21);
            const std::uint64_t payload_len = get_u64(buf, off + 25);
            if (kHeadBytes + meta_len > rem) {
                // Header claims more metadata than the file holds, so its
                // CRC cannot be checked: a torn append, unless a verifiable
                // frame follows — then the length itself is corrupt, and
                // truncating would destroy committed frames.
                if (verified_frame_from(buf, off + 4)) {
                    if (!resync(off + 4)) break;
                    continue;
                }
                tail(off);
                break;
            }
            if (!head_crc_matches(buf, off, meta_len)) {
                if (!resync(off + 4)) break;
                continue;
            }
            // Header is trustworthy: the frame extent is known.
            const std::uint64_t frame_bytes =
                kHeadBytes + meta_len + payload_len + kTailBytes;
            if (frame_bytes > rem) {
                tail(off);  // payload torn mid-append
                break;
            }
            const std::size_t payload_at = off + kHeadBytes + meta_len;
            const std::uint32_t crc_payload =
                get_u32(buf, payload_at + payload_len);
            const std::uint32_t commit =
                get_u32(buf, payload_at + payload_len + 4);
            const bool committed = commit == kCommit;
            const bool payload_ok =
                ffs::crc32c(std::span<const std::byte>(buf).subspan(
                    payload_at, payload_len)) == crc_payload;
            if (!committed && last && off + frame_bytes == buf.size()) {
                tail(off);  // commit marker never landed: classic torn tail
                break;
            }
            if (kind == kKindStep) {
                FrameInfo info;
                info.segment = id;
                info.offset = off;
                info.bytes = frame_bytes;
                info.layout_gen = layout_gen;
                info.bad = !payload_ok || !committed;
                if (info.bad) {
                    const auto* m = buf.data() + off + kHeadBytes;
                    info.meta.assign(m, m + meta_len);
                    out.notes.push_back(
                        "segment " + std::to_string(id) + ": quarantined step " +
                        std::to_string(step) + " at offset " +
                        std::to_string(off) +
                        (payload_ok ? " (missing commit)" : " (payload CRC)"));
                }
                out.steps[step] = std::move(info);
                out.next_step = std::max(out.next_step, step + 1);
                out.max_layout_gen = std::max(out.max_layout_gen, layout_gen);
                seg.max_step = std::max(seg.max_step, step);
                seg.has_steps = true;
            } else if (kind == kKindAck) {
                out.acked = std::max(out.acked, step);
                out.next_step = std::max(out.next_step, step);
                seg.max_ack = std::max(seg.max_ack, step);
            } else if (kind == kKindEos) {
                // The Eos frame records how many steps the writer group
                // published, so a lost final step frame is a gap, not a
                // silently shorter stream.
                out.complete = true;
                out.next_step = std::max(out.next_step, step);
                seg.has_eos = true;
            } else {
                out.notes.push_back("segment " + std::to_string(id) +
                                    ": unknown frame kind " +
                                    std::to_string(kind) + " at offset " +
                                    std::to_string(off));
            }
            off += frame_bytes;
        }
        out.log_bytes += seg.bytes;
        out.segments.push_back(seg);
    }
    return out;
}

}  // namespace

bool durable_enabled_from_env() { return true; }

bool parse_fsync_policy(const std::string& text, Options& into) {
    if (text == "never") {
        into.fsync = FsyncPolicy::Never;
        return true;
    }
    if (text == "commit") {
        into.fsync = FsyncPolicy::Commit;
        return true;
    }
    if (text.rfind("interval:", 0) == 0) {
        try {
            std::size_t used = 0;
            const double ms = std::stod(text.substr(9), &used);
            if (used != text.size() - 9 || ms <= 0.0) return false;
            into.fsync = FsyncPolicy::Interval;
            into.fsync_interval_ms = ms;
            return true;
        } catch (const std::exception&) {
            return false;
        }
    }
    return false;
}

std::string RecoveryReport::to_string() const {
    std::ostringstream os;
    os << "stream '" << stream << "': " << steps_recovered
       << " step(s) recovered, " << steps_quarantined << " quarantined, acked "
       << acked << ", next step " << next_step
       << (complete ? ", complete" : ", open") << ", " << segments
       << " segment(s), " << log_bytes << " bytes";
    if (torn_bytes > 0) os << ", torn tail " << torn_bytes << " bytes";
    for (const std::string& n : notes) os << "\n  - " << n;
    return os.str();
}

// ---- Log -------------------------------------------------------------------

Log::Log(std::string stream, Options opts)
    : stream_(std::move(stream)),
      opts_(std::move(opts)),
      mu_("durable.Log('" + stream_ + "').mu") {
    auto& reg = obs::Registry::global();
    const obs::Labels labels{{"stream", stream_}};
    ins_.steps_appended = &reg.counter("durable.steps_appended", labels);
    ins_.acks_appended = &reg.counter("durable.acks_appended", labels);
    ins_.bytes_appended = &reg.counter("durable.bytes_appended", labels);
    ins_.bytes_read = &reg.counter("durable.bytes_read", labels);
    ins_.steps_recovered = &reg.counter("durable.steps_recovered", labels);
    ins_.steps_quarantined = &reg.counter("durable.steps_quarantined", labels);
    ins_.torn_bytes = &reg.counter("durable.torn_bytes", labels);
    ins_.fsyncs = &reg.counter("durable.fsyncs", labels);
    ins_.segments_collected = &reg.counter("durable.segments_collected", labels);
    ins_.log_bytes = &reg.gauge("durable.log_bytes", labels);
    ins_.append_seconds = &reg.histogram("durable.append_seconds", labels);
    ins_.fsync_seconds = &reg.histogram("durable.fsync_seconds", labels);
    ins_.recovery_seconds = &reg.histogram("durable.recovery_seconds", labels);

    fs::create_directories(opts_.dir);
    const std::string safe = safe_name(stream_);

    const double t0 = obs::steady_seconds();
    fault::hit("durable.scan", stream_);
    ScanResult scan =
        scan_stream(opts_.dir, safe, find_segments(opts_.dir, safe), true);
    for (auto& [step, info] : scan.steps) {
        index_[step] = Frame{info.segment, info.offset, info.bytes,
                             info.layout_gen,
                             info.bad ? RecoveredStep::State::BadPayload
                                      : RecoveredStep::State::Ok};
    }
    for (const SegInfo& s : scan.segments) {
        segments_.push_back(
            Segment{s.id, s.bytes, s.max_step, s.has_steps, s.max_ack, s.has_eos});
    }
    max_layout_gen_ = scan.max_layout_gen;
    last_ack_ = scan.acked;

    report_.stream = stream_;
    report_.acked = scan.acked;
    report_.complete = scan.complete;
    report_.torn_bytes = scan.torn_bytes;
    report_.log_bytes = scan.log_bytes;
    report_.segments = scan.segments.size();
    report_.notes = std::move(scan.notes);
    report_.next_step = scan.next_step;
    for (const auto& [step, info] : scan.steps) {
        if (info.bad) {
            ++report_.steps_quarantined;
        } else {
            ++report_.steps_recovered;
        }
    }
    // The window the stream re-exposes: everything not yet acknowledged —
    // or the whole surviving history for a late-joining replay reader.
    const std::uint64_t base = opts_.replay_history ? 0 : scan.acked;
    for (auto& [step, info] : scan.steps) {
        if (step < base) continue;
        RecoveredStep rs;
        rs.step = step;
        rs.layout_gen = info.layout_gen;
        rs.state = info.bad ? RecoveredStep::State::BadPayload
                            : RecoveredStep::State::Ok;
        rs.meta = std::move(info.meta);
        recovered_.push_back(std::move(rs));
    }
    const double t1 = obs::steady_seconds();
    report_.seconds = t1 - t0;

    ins_.steps_recovered->add(report_.steps_recovered);
    ins_.steps_quarantined->add(report_.steps_quarantined);
    ins_.torn_bytes->add(report_.torn_bytes);
    ins_.log_bytes->set(static_cast<double>(report_.log_bytes));
    ins_.recovery_seconds->observe(report_.seconds);
    if (obs::enabled() && (report_.steps_recovered > 0 ||
                           report_.steps_quarantined > 0 ||
                           report_.torn_bytes > 0 || report_.acked > 0)) {
        obs::TraceLog::global().slice("recovery", stream_, "restart", t0, t1,
                                      report_.acked);
        SB_LOG(Info) << "durable: " << report_.to_string();
    }

    std::lock_guard lock(mu_);
    last_fsync_ = obs::steady_seconds();
    open_active_locked();
}

Log::~Log() {
    std::lock_guard lock(mu_);
    if (fd_ >= 0) {
        // Best-effort flush on clean close; Never means the caller accepted
        // page-cache durability.
        if (dirty_ && opts_.fsync != FsyncPolicy::Never) ::fsync(fd_);
        ::close(fd_);
        fd_ = -1;
    }
}

std::string Log::segment_path(std::uint64_t seg) const {
    return seg_path(opts_.dir, safe_name(stream_), seg);
}

void Log::open_active_locked() {
    if (segments_.empty()) segments_.push_back(Segment{});
    const std::string path = segment_path(segments_.back().id);
    fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0) {
        throw SpoolError(std::string("durable log open failed: ") +
                             std::strerror(errno),
                         path, 0, 0);
    }
}

void Log::roll_if_needed_locked(std::size_t frame_bytes) {
    Segment& active = segments_.back();
    if (active.bytes == 0 || active.bytes + frame_bytes <= opts_.segment_bytes)
        return;
    ::close(fd_);
    fd_ = -1;
    segments_.push_back(Segment{active.id + 1});
    open_active_locked();
}

void Log::write_frame_locked(const ffs::Bytes& head,
                             const std::vector<std::span<const std::byte>>& body,
                             const ffs::Bytes& tail) {
    // A torn-write fault makes the frame land short by N bytes and then
    // crashes the rank — the next incarnation's scanner must find exactly
    // the tear a power cut would leave.
    std::uint64_t frame_bytes = head.size() + tail.size();
    for (const auto& s : body) frame_bytes += s.size();
    std::uint64_t budget = frame_bytes;
    try {
        fault::hit("durable.append", stream_);
    } catch (const fault::TornWrite& torn) {
        budget -= std::min<std::uint64_t>(torn.bytes(), frame_bytes);
        ins_.torn_bytes->add(frame_bytes - budget);
        std::vector<std::span<const std::byte>> spans;
        spans.emplace_back(head);
        for (const auto& s : body) spans.push_back(s);
        spans.emplace_back(tail);
        for (const auto& s : spans) {
            const std::size_t n =
                std::min<std::uint64_t>(s.size(), budget);
            if (n > 0) {
                [[maybe_unused]] const auto written =
                    ::write(fd_, s.data(), n);
            }
            budget -= n;
            if (budget == 0) break;
        }
        throw fault::InjectedCrash(torn.what());
    }
    std::vector<std::span<const std::byte>> spans;
    spans.emplace_back(head);
    for (const auto& s : body) spans.push_back(s);
    spans.emplace_back(tail);
    const std::string path = segment_path(segments_.back().id);
    for (const auto& s : spans) {
        const std::byte* p = s.data();
        std::size_t left = s.size();
        while (left > 0) {
            const auto n = ::write(fd_, p, left);
            if (n < 0) {
                if (errno == EINTR) continue;
                throw SpoolError(std::string("durable log write failed: ") +
                                     std::strerror(errno),
                                 path, segments_.back().bytes, 0);
            }
            p += n;
            left -= static_cast<std::size_t>(n);
        }
    }
    segments_.back().bytes += frame_bytes;
    dirty_ = true;
}

void Log::maybe_fsync_locked() {
    switch (opts_.fsync) {
        case FsyncPolicy::Never:
            return;
        case FsyncPolicy::Commit:
            fsync_now_locked();
            return;
        case FsyncPolicy::Interval:
            if ((obs::steady_seconds() - last_fsync_) * 1000.0 >=
                opts_.fsync_interval_ms) {
                fsync_now_locked();
            }
            return;
    }
}

void Log::fsync_now_locked() {
    fault::hit("durable.fsync", stream_);
    const double t0 = obs::steady_seconds();
    ::fsync(fd_);
    const double t1 = obs::steady_seconds();
    ins_.fsyncs->inc();
    ins_.fsync_seconds->observe(t1 - t0);
    last_fsync_ = t1;
    dirty_ = false;
}

void Log::append_step(std::uint64_t step, std::uint64_t layout_gen,
                      std::span<const std::byte> meta,
                      const ffs::EncodedSegments& payload) {
    const double t0 = obs::steady_seconds();
    std::lock_guard lock(mu_);
    const std::size_t frame_bytes =
        kHeadBytes + meta.size() + payload.total + kTailBytes;
    roll_if_needed_locked(frame_bytes);

    ffs::Bytes head;
    head.reserve(kHeadBytes + meta.size());
    put_u32(head, kMagic);
    head.push_back(std::byte{kKindStep});
    put_u64(head, step);
    put_u64(head, layout_gen);
    put_u32(head, static_cast<std::uint32_t>(meta.size()));
    put_u64(head, payload.total);
    std::uint32_t c = ffs::crc32c_init();
    c = ffs::crc32c_update(c,
                           std::span<const std::byte>(head).subspan(4));
    c = ffs::crc32c_update(c, meta);
    put_u32(head, ffs::crc32c_final(c));
    head.insert(head.end(), meta.begin(), meta.end());

    // EncodedSegments::segments is the *complete* scatter-gather list
    // (header spans interleaved with borrowed payload spans; `header` is
    // only their backing storage), so the segments alone are the payload.
    std::vector<std::span<const std::byte>> body;
    body.reserve(payload.segments.size());
    std::uint32_t pc = ffs::crc32c_init();
    for (const auto& s : payload.segments) {
        body.push_back(s);
        pc = ffs::crc32c_update(pc, s);
    }
    ffs::Bytes tail;
    tail.reserve(kTailBytes);
    put_u32(tail, ffs::crc32c_final(pc));
    put_u32(tail, kCommit);

    const std::uint64_t offset = segments_.back().bytes;
    write_frame_locked(head, body, tail);
    Segment& active = segments_.back();
    active.max_step = std::max(active.max_step, step);
    active.has_steps = true;
    index_[step] = Frame{active.id, offset,
                         static_cast<std::uint64_t>(frame_bytes), layout_gen,
                         RecoveredStep::State::Ok};
    max_layout_gen_ = std::max(max_layout_gen_, layout_gen);
    report_.next_step = std::max(report_.next_step, step + 1);
    maybe_fsync_locked();

    ins_.steps_appended->inc();
    ins_.bytes_appended->add(frame_bytes);
    std::uint64_t total = 0;
    for (const Segment& s : segments_) total += s.bytes;
    ins_.log_bytes->set(static_cast<double>(total));
    ins_.append_seconds->observe(obs::steady_seconds() - t0);
}

void Log::append_ack(std::uint64_t upto) {
    std::lock_guard lock(mu_);
    if (upto <= last_ack_) return;

    ffs::Bytes head;
    head.reserve(kHeadBytes);
    put_u32(head, kMagic);
    head.push_back(std::byte{kKindAck});
    put_u64(head, upto);
    put_u64(head, 0);  // layout_gen unused
    put_u32(head, 0);  // meta_len
    put_u64(head, 0);  // payload_len
    put_u32(head, ffs::crc32c(std::span<const std::byte>(head).subspan(4)));
    ffs::Bytes tail;
    tail.reserve(kTailBytes);
    put_u32(tail, ffs::crc32c({}));  // empty payload
    put_u32(tail, kCommit);

    roll_if_needed_locked(head.size() + tail.size());
    write_frame_locked(head, {}, tail);
    // Only an ack frame that landed moves the frontier: collect() keeps the
    // segment holding it, so the frontier always has a frame on disk.
    last_ack_ = upto;
    segments_.back().max_ack = upto;
    maybe_fsync_locked();
    ins_.acks_appended->inc();
    ins_.bytes_appended->add(head.size() + tail.size());
}

void Log::append_eos() {
    std::lock_guard lock(mu_);
    if (report_.complete) return;
    report_.complete = true;

    ffs::Bytes head;
    head.reserve(kHeadBytes);
    put_u32(head, kMagic);
    head.push_back(std::byte{kKindEos});
    put_u64(head, report_.next_step);  // steps published before the close
    put_u64(head, 0);
    put_u32(head, 0);
    put_u64(head, 0);
    put_u32(head, ffs::crc32c(std::span<const std::byte>(head).subspan(4)));
    ffs::Bytes tail;
    tail.reserve(kTailBytes);
    put_u32(tail, ffs::crc32c({}));
    put_u32(tail, kCommit);

    write_frame_locked(head, {}, tail);
    segments_.back().has_eos = true;
    // The closing marker is always flushed (unless durability is Never):
    // a replayed reader must not spin waiting for a writer that finished.
    if (opts_.fsync != FsyncPolicy::Never) fsync_now_locked();
    ins_.bytes_appended->add(head.size() + tail.size());
}

LoadedStep Log::load_step(std::uint64_t step) {
    Frame frame;
    std::string path;
    {
        std::lock_guard lock(mu_);
        const auto it = index_.find(step);
        if (it == index_.end()) {
            throw SpoolError("durable log has no frame for step",
                             segment_path(segments_.empty() ? 0
                                                            : segments_.back().id),
                             0, step);
        }
        frame = it->second;
        path = segment_path(frame.segment);
        if (frame.state != RecoveredStep::State::Ok) {
            throw SpoolError("durable log frame quarantined", path,
                             frame.offset, step);
        }
    }
    // One positioned read of the whole frame into a pooled buffer; the
    // checks below and the returned views all work on that one copy.  The
    // buffer is taken before the file is opened, so nothing can throw while
    // the descriptor is open.
    util::PooledBytes frame_buf = util::BufferPool::global().acquire(frame.bytes);
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        throw SpoolError("durable log segment missing", path, frame.offset,
                         step);
    }
    std::uint64_t got = 0;
    while (got < frame.bytes) {
        const auto n = ::pread(fd, frame_buf->data() + got, frame.bytes - got,
                               static_cast<off_t>(frame.offset + got));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        got += static_cast<std::uint64_t>(n);
    }
    ::close(fd);
    if (got != frame.bytes) {
        throw SpoolError("durable log frame truncated on reload", path,
                         frame.offset, step);
    }
    const std::span<const std::byte> buf(*frame_buf);
    // Re-verify both checksums on every reload: the log is the only copy of
    // the step now, so bit rot between recovery and reload must not decode.
    if (get_u32(buf, 0) != kMagic ||
        std::to_integer<std::uint8_t>(buf[4]) != kKindStep ||
        get_u64(buf, 5) != step) {
        throw SpoolError("durable log frame header mismatch on reload", path,
                         frame.offset, step);
    }
    const std::uint64_t meta_len = get_u32(buf, 21);
    const std::uint64_t payload_len = get_u64(buf, 25);
    if (kHeadBytes + meta_len + payload_len + kTailBytes != frame.bytes) {
        throw SpoolError("durable log frame size mismatch on reload", path,
                         frame.offset, step);
    }
    const std::size_t payload_at = kHeadBytes + meta_len;
    if (!head_crc_matches(buf, 0, meta_len) ||
        ffs::crc32c(buf.subspan(payload_at, payload_len)) !=
            get_u32(buf, payload_at + payload_len)) {
        throw SpoolError("durable log frame failed CRC on reload", path,
                         frame.offset, step);
    }
    LoadedStep out;
    out.step = step;
    out.layout_gen = get_u64(buf, 13);
    out.meta = buf.subspan(kHeadBytes, meta_len);
    out.payload = buf.subspan(payload_at, payload_len);
    out.frame = std::move(frame_buf);
    ins_.bytes_read->add(frame.bytes);
    return out;
}

void Log::collect(std::uint64_t pinned_below) {
    if (opts_.retain_steps == 0 && opts_.retain_bytes == 0) return;  // keep all
    std::lock_guard lock(mu_);
    std::uint64_t floor = std::min(last_ack_, pinned_below);
    if (opts_.retain_steps > 0) {
        floor = floor > opts_.retain_steps ? floor - opts_.retain_steps : 0;
    }
    std::uint64_t total = 0;
    for (const Segment& s : segments_) total += s.bytes;
    // Delete oldest-first, stopping at the first segment still holding a
    // live (or retained) step so the surviving log stays contiguous.  The
    // active segment is never a candidate.  A segment of ack frames alone
    // goes once a newer ack exists; the one holding the newest ack (the
    // recovery resume point) and the Eos frame stay, and so does a segment
    // with no frame the scanner recognised (the notes on its damage).
    while (segments_.size() > 1) {
        const Segment& victim = segments_.front();
        if (victim.has_eos || victim.max_ack == last_ack_) break;
        if (victim.has_steps ? victim.max_step >= floor : victim.max_ack == 0)
            break;
        if (opts_.retain_bytes > 0 && total <= opts_.retain_bytes) break;
        std::error_code ec;
        fs::remove(segment_path(victim.id), ec);
        total -= victim.bytes;
        std::erase_if(index_, [&](const auto& kv) {
            return kv.second.segment == victim.id;
        });
        segments_.erase(segments_.begin());
        ins_.segments_collected->inc();
    }
    ins_.log_bytes->set(static_cast<double>(total));
}

std::uint64_t Log::log_bytes() const {
    std::lock_guard lock(mu_);
    std::uint64_t total = 0;
    for (const Segment& s : segments_) total += s.bytes;
    return total;
}

std::vector<RecoveryReport> scan_dir(const std::string& dir) {
    std::vector<RecoveryReport> reports;
    std::vector<std::string> streams;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        const std::string fname = entry.path().filename().string();
        const std::string suffix = ".sblog";
        if (fname.size() <= suffix.size() ||
            fname.compare(fname.size() - suffix.size(), suffix.size(),
                          suffix) != 0)
            continue;
        // <stream>.<seg>.sblog -> strip the trailing ".<seg>.sblog".
        const std::string stem = fname.substr(0, fname.size() - suffix.size());
        const auto dot = stem.rfind('.');
        if (dot == std::string::npos) continue;
        const std::string stream = stem.substr(0, dot);
        if (std::find(streams.begin(), streams.end(), stream) == streams.end())
            streams.push_back(stream);
    }
    std::sort(streams.begin(), streams.end());
    for (const std::string& stream : streams) {
        fault::hit("durable.scan", stream);
        const double t0 = obs::steady_seconds();
        ScanResult scan =
            scan_stream(dir, stream, find_segments(dir, stream), false);
        RecoveryReport r;
        r.stream = stream;
        r.acked = scan.acked;
        r.complete = scan.complete;
        r.torn_bytes = scan.torn_bytes;
        r.log_bytes = scan.log_bytes;
        r.segments = scan.segments.size();
        r.notes = std::move(scan.notes);
        r.next_step = scan.next_step;
        for (const auto& [step, info] : scan.steps) {
            if (info.bad) {
                ++r.steps_quarantined;
            } else {
                ++r.steps_recovered;
            }
        }
        r.seconds = obs::steady_seconds() - t0;
        reports.push_back(std::move(r));
    }
    return reports;
}

bool history_exists(const std::string& dir, const std::string& stream) {
    if (dir.empty()) return false;
    return !find_segments(dir, safe_name(stream)).empty();
}

}  // namespace sb::durable
