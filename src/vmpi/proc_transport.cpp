#include "vmpi/proc_transport.hpp"

#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <new>
#include <sstream>
#include <thread>
#include <tuple>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/byte_codec.hpp"
#include "util/log.hpp"
#include "vmpi/ring_core.hpp"
#include "vmpi/runtime.hpp"
#include "vmpi/wait_scope.hpp"

namespace pgasm::vmpi {

namespace {

constexpr std::size_t kAlign = 64;

std::size_t align_up(std::size_t n) { return (n + kAlign - 1) & ~(kAlign - 1); }

/// Brief pause inside a polling loop: stay hot for a few iterations (the
/// common case is a peer actively producing), then nap so idle waits do not
/// burn a core per rank.
void poll_nap(int& idle) {
  if (++idle < 64) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

}  // namespace

ProcTransport::ProcTransport(int num_ranks, std::size_t ring_bytes)
    : num_ranks_(num_ranks),
      ring_bytes_(align_up(std::max<std::size_t>(ring_bytes, 4096))),
      assembly_(static_cast<std::size_t>(num_ranks)) {
  const std::size_t p = static_cast<std::size_t>(num_ranks);
  const std::size_t control_off = 0;
  const std::size_t dead_off = align_up(control_off + sizeof(detail::ShmControl));
  const std::size_t done_off = dead_off + p * sizeof(detail::ShmFlag);
  const std::size_t acks_off = done_off + p * sizeof(detail::ShmFlag);
  const std::size_t rings_off = acks_off + p * p * sizeof(detail::ShmAckSlot);
  const std::size_t ring_stride = sizeof(detail::RingHdr) + ring_bytes_;
  region_size_ = rings_off + p * p * ring_stride;

  // Anonymous MAP_SHARED: the one mapping every rank process inherits over
  // fork. Pages are allocated lazily, so a large p with mostly-idle rings
  // costs address space, not memory.
  region_ = ::mmap(nullptr, region_size_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (region_ == MAP_FAILED) {
    region_ = nullptr;
    throw std::runtime_error("proc transport: mmap of " +
                             std::to_string(region_size_) + " bytes failed");
  }
  auto* base = static_cast<std::byte*>(region_);
  control_ = new (base + control_off) detail::ShmControl();
  dead_ = reinterpret_cast<detail::ShmFlag*>(base + dead_off);
  done_ = reinterpret_cast<detail::ShmFlag*>(base + done_off);
  acks_ = reinterpret_cast<detail::ShmAckSlot*>(base + acks_off);
  rings_ = base + rings_off;
  for (std::size_t i = 0; i < p; ++i) {
    new (dead_ + i) detail::ShmFlag();
    new (done_ + i) detail::ShmFlag();
  }
  for (std::size_t i = 0; i < p * p; ++i) {
    new (acks_ + i) detail::ShmAckSlot();
    new (rings_ + i * ring_stride) detail::RingHdr();
  }
}

ProcTransport::~ProcTransport() {
  if (region_ != nullptr) ::munmap(region_, region_size_);
}

detail::RingHdr* ProcTransport::ring_hdr(int src, int dst) const noexcept {
  const std::size_t ring_stride = sizeof(detail::RingHdr) + ring_bytes_;
  const std::size_t idx = static_cast<std::size_t>(src) *
                              static_cast<std::size_t>(num_ranks_) +
                          static_cast<std::size_t>(dst);
  return reinterpret_cast<detail::RingHdr*>(rings_ + idx * ring_stride);
}

std::byte* ProcTransport::ring_buf(int src, int dst) const noexcept {
  return reinterpret_cast<std::byte*>(ring_hdr(src, dst)) +
         sizeof(detail::RingHdr);
}

void ProcTransport::mark_dead(int rank) {
  // exchange, not store: death can be reported twice (a child marking
  // itself on KilledError and the parent's reaper observing its exit), and
  // ranks_failed must count each rank once.
  if (dead_[rank].v.exchange(1, std::memory_order_acq_rel) == 0) {
    control_->counters.ranks_failed.fetch_add(1, std::memory_order_relaxed);
  }
}

void ProcTransport::mark_done(int rank) {
  // Release: everything this rank wrote into its outbound rings happens-
  // before any peer observing done, so a receiver that saw done and then
  // drained cannot have missed a message.
  done_[rank].v.store(1, std::memory_order_release);
}

void ProcTransport::abort_all() {
  control_->aborted.store(1, std::memory_order_release);
}

bool ProcTransport::claim_first_error(int rank) noexcept {
  std::int32_t expected = -1;
  return control_->first_error_rank.compare_exchange_strong(
      expected, rank, std::memory_order_acq_rel);
}

void ProcTransport::drain_inbound(int self) {
  StdRingFacade ring;
  for (int s = 0; s < num_ranks_; ++s) {
    detail::RingHdr* hdr = ring_hdr(s, self);
    const std::byte* buf = ring_buf(s, self);
    Assembly& as = assembly_[static_cast<std::size_t>(s)];
    for (;;) {
      // Complete any fully-assembled piece before popping more: this also
      // finishes zero-length payloads, which consume no ring bytes.
      if (as.in_payload && as.have == as.hdr.payload_len) {
        detail::Message m;
        m.source = static_cast<int>(as.hdr.source);
        m.tag = as.hdr.tag;
        m.internal = as.hdr.internal != 0;
        m.send_idx = as.hdr.send_idx;
        m.sync = as.hdr.sync != 0;
        m.payload = std::move(as.payload);
        pending_.push_back(std::move(m));
        as = Assembly{};
      }
      if (!as.in_payload && as.have == sizeof(detail::FrameHdr)) {
        as.in_payload = true;
        as.have = 0;
        as.payload.resize(static_cast<std::size_t>(as.hdr.payload_len));
        continue;
      }
      std::size_t want;
      std::byte* dst;
      if (!as.in_payload) {
        want = sizeof(detail::FrameHdr) - as.have;
        dst = reinterpret_cast<std::byte*>(&as.hdr) + as.have;
      } else {
        want = static_cast<std::size_t>(as.hdr.payload_len) - as.have;
        dst = as.payload.data() + as.have;
      }
      // The pop core (vmpi/ring_core.hpp) owns the cursor discipline:
      // acquire the producer-owned tail, advance the consumer-owned head
      // with a release store once the bytes are copied out.
      const std::size_t chunk = StdRing::try_pop(
          ring, hdr->head, hdr->tail, buf, ring_bytes_, dst, want);
      if (chunk == 0) break;
      as.have += chunk;
    }
  }
}

bool ProcTransport::write_stream(int self, int dest, const void* data,
                                 std::size_t n) {
  detail::RingHdr* hdr = ring_hdr(self, dest);
  std::byte* buf = ring_buf(self, dest);
  const auto* src = static_cast<const std::byte*>(data);
  StdRingFacade ring;
  std::size_t written = 0;
  int idle = 0;
  while (written < n) {
    // The push core (vmpi/ring_core.hpp) owns the cursor discipline:
    // acquire the consumer-owned head, advance the producer-owned tail with
    // a release store only after the bytes are fully in place — a consumer
    // can never observe a torn chunk, even if we are SIGKILLed right here.
    const std::size_t chunk = StdRing::try_push(
        ring, hdr->head, hdr->tail, buf, ring_bytes_, src + written,
        n - written);
    if (chunk == 0) {
      // Unlike the unbounded thread mailboxes, a bounded ring can block a
      // producer. Abandon the stream when the consumer can never drain it
      // (dead/finished — nothing reads that ring again, a torn frame is
      // unobservable), bail on abort, and keep draining our own inbound
      // rings so producer-producer cycles cannot deadlock.
      if (is_dead(dest) || is_done(dest)) return false;
      if (is_aborted()) throw AbortError("vmpi aborted");
      drain_inbound(self);
      poll_nap(idle);
      continue;
    }
    written += chunk;
    idle = 0;
  }
  return true;
}

void ProcTransport::deliver(int self, int dest, detail::Message&& msg,
                            bool sync) {
  detail::FrameHdr fh;
  fh.payload_len = msg.payload.size();
  fh.tag = msg.tag;
  fh.send_idx = msg.send_idx;
  fh.source = static_cast<std::uint32_t>(self);
  fh.internal = msg.internal ? 1 : 0;
  fh.sync = sync ? 1 : 0;
  if (!write_stream(self, dest, &fh, sizeof(fh)) ||
      !write_stream(self, dest, msg.payload.data(), msg.payload.size())) {
    // Destination died or finished mid-stream: the message was never fully
    // enqueued. Mirrors the thread transport's dead-before-push race, which
    // is the one post-preflight path that counts sends_to_dead.
    if (sync && is_dead(dest))
      counters().sends_to_dead.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!sync) return;
  // ssend rendezvous: poll the ack slot until the destination consumes the
  // message. A destination that died or finished after fully receiving the
  // frame completes the send silently, exactly like the thread transport's
  // consumed-flag flip in mark_dead/mark_done.
  std::atomic<std::uint64_t>& slot =
      acks_[static_cast<std::size_t>(self) *
                static_cast<std::size_t>(num_ranks_) +
            static_cast<std::size_t>(dest)]
          .v;
  const std::uint64_t idx = msg.send_idx;
  int idle = 0;
  for (;;) {
    if (slot.load(std::memory_order_acquire) >= idx) return;
    if (is_dead(dest) || is_done(dest)) return;
    if (is_aborted()) throw AbortError("vmpi aborted during ssend");
    // Keep draining: a peer blocked writing into our full inbound ring may
    // be the very rank that must progress to consume this message.
    drain_inbound(self);
    poll_nap(idle);
  }
}

Transport::Wait ProcTransport::recv(
    int self, int source, std::int64_t tag, bool internal,
    const std::chrono::steady_clock::time_point* deadline,
    detail::Message* out) {
  const bool specific = source != kAnySource && source != self;
  int idle = 0;
  for (;;) {
    // Liveness read BEFORE the drain: mark_done is a release after the
    // rank's last write, so "gone, and drained after seeing gone, and still
    // no match" proves no message is coming. (A dead source's mid-stream
    // frame stays incomplete in the assembly buffer and is never surfaced.)
    const bool gone =
        specific && (is_dead(source) || is_done(source));
    if (is_aborted()) throw AbortError("vmpi aborted");
    drain_inbound(self);
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (!detail::matches(*it, source, tag, internal)) continue;
      if (it->sync) {
        // Consume-time acknowledgement: the sender's send_idx is strictly
        // increasing and it has at most one sync send outstanding, so a
        // plain store is monotonic.
        acks_[static_cast<std::size_t>(it->source) *
                  static_cast<std::size_t>(num_ranks_) +
              static_cast<std::size_t>(self)]
            .v.store(it->send_idx, std::memory_order_release);
      }
      *out = std::move(*it);
      pending_.erase(it);
      return Wait::kMessage;
    }
    if (gone) return Wait::kPeerGone;
    if (deadline && std::chrono::steady_clock::now() >= *deadline) {
      return Wait::kTimeout;
    }
    poll_nap(idle);
  }
}

Transport::Wait ProcTransport::probe(
    int self, int source, std::int64_t tag,
    const std::chrono::steady_clock::time_point* deadline, ProbeResult* out) {
  const bool specific = source != kAnySource && source != self;
  int idle = 0;
  for (;;) {
    const bool gone =
        specific && (is_dead(source) || is_done(source));
    if (is_aborted()) throw AbortError("vmpi aborted");
    drain_inbound(self);
    for (const auto& m : pending_) {
      if (!detail::matches(m, source, tag, /*internal=*/false)) continue;
      out->source = m.source;
      out->tag = m.tag;
      out->bytes = m.payload.size();
      out->send_idx = m.send_idx;
      return Wait::kMessage;
    }
    if (gone) return Wait::kPeerGone;
    if (deadline && std::chrono::steady_clock::now() >= *deadline) {
      return Wait::kTimeout;
    }
    poll_nap(idle);
  }
}

bool ProcTransport::iprobe(int self, int source, std::int64_t tag,
                           ProbeResult* out) {
  if (is_aborted()) throw AbortError("vmpi aborted");
  drain_inbound(self);
  for (const auto& m : pending_) {
    if (!detail::matches(m, source, tag, /*internal=*/false)) continue;
    if (out != nullptr) {
      out->source = m.source;
      out->tag = m.tag;
      out->bytes = m.payload.size();
      out->send_idx = m.send_idx;
    }
    return true;
  }
  return false;
}

void ProcTransport::crash_self(int self, const std::string& why) {
  if (self == 0) {
    // Rank 0 lives on the parent's thread; killing it would take down the
    // whole run, so it dies the thread-transport way.
    throw KilledError(why);
  }
  // A real machine-style failure: no unwinding, no flushes, no exit blob.
  // The parent's reaper observes WIFSIGNALED and marks the rank dead.
  ::kill(::getpid(), SIGKILL);
  for (;;) ::pause();  // unreachable
}

// --------------------------------------------------------------------------
// Exit blobs: everything a child rank ships back to the parent — its cost
// ledger, stash, error (if any), and its obs state as *deltas* against a
// baseline captured right after fork (the child inherited the parent's
// rings and registry, so shipping absolutes would double count).

namespace {

using util::append_pod;
using util::append_run;
using util::append_vec;

// Smallest encoding of each counted record, for the count-vs-bytes check.
constexpr std::size_t kStashEntryBytes = 4 + 8;
constexpr std::size_t kStringBytes = 4;
constexpr std::size_t kRingBytes = 4 + 8 + 8;
constexpr std::size_t kEventBytes = 6 * 4 + 1 + 6 * 8;
constexpr std::size_t kMetricBytes = 1 + 4 + 4 + 4 + 8;
constexpr std::size_t kBucketBytes = 4 + 8;

}  // namespace

std::string encode_exit_blob(const ExitBlob& blob) {
  std::string b;
  append_pod(b, ExitBlob::kMagic, ExitBlob::kVersion,
             static_cast<std::uint32_t>(blob.rank),
             static_cast<std::uint8_t>(blob.kind));
  append_vec(b, blob.error);
  const RankLedger& l = blob.ledger;
  append_pod(b, blob.epoch_ns, l.msgs_sent, l.bytes_sent, l.msgs_recv,
             l.bytes_recv, l.compute_seconds, l.comm_seconds,
             static_cast<std::uint32_t>(blob.stash.size()));
  for (const auto& [key, bytes] : blob.stash) {
    append_pod(b, key, static_cast<std::uint64_t>(bytes.size()));
    append_run(b, bytes);
  }
  append_pod(b, static_cast<std::uint8_t>(blob.traced ? 1 : 0));
  if (blob.traced) {
    append_pod(b, static_cast<std::uint32_t>(blob.strings.size()));
    for (const auto& str : blob.strings) append_vec(b, str);
    append_pod(b, static_cast<std::uint32_t>(blob.rings.size()));
    for (const ExitBlob::Ring& ring : blob.rings) {
      append_pod(b, static_cast<std::uint32_t>(ring.rank), ring.dropped,
                 static_cast<std::uint64_t>(ring.events.size()));
      for (const ExitBlob::Event& ev : ring.events) {
        append_pod(b, ev.name, ev.cat, ev.kind, ev.ts_us, ev.dur_us,
                   ev.cpu_us);
        for (std::size_t k = 0; k < 3; ++k) {
          append_pod(b, ev.arg_name[k], ev.arg[k]);
        }
        append_pod(b, ev.phase);
      }
    }
  }
  append_pod(b, static_cast<std::uint32_t>(blob.metrics.size()));
  for (const obs::MetricSample& m : blob.metrics) {
    append_pod(b, static_cast<std::uint8_t>(m.kind));
    append_vec(b, m.key.name);
    append_pod(b, static_cast<std::uint32_t>(m.key.rank));
    append_vec(b, m.key.phase);
    switch (m.kind) {
      case obs::MetricSample::Kind::kCounter:
        append_pod(b, m.counter_value);
        break;
      case obs::MetricSample::Kind::kGauge:
        append_pod(b, m.gauge_value);
        break;
      case obs::MetricSample::Kind::kHistogram:
        append_pod(b, static_cast<std::uint32_t>(m.buckets.size()));
        for (const auto& [bucket, n] : m.buckets) {
          append_pod(b, static_cast<std::uint32_t>(bucket), n);
        }
        append_pod(b, m.hist_sum);
        break;
    }
  }
  return b;
}

std::optional<ExitBlob> decode_exit_blob(std::string_view bytes) {
  util::Cursor cur(bytes);
  ExitBlob blob;
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint8_t kind = 0;
  cur.read_each("exit blob header", magic, version, blob.rank, kind);
  if (!cur.ok() || magic != ExitBlob::kMagic ||
      version != ExitBlob::kVersion ||
      kind > static_cast<std::uint8_t>(ExitKind::kKilled)) {
    return std::nullopt;
  }
  blob.kind = static_cast<ExitKind>(kind);
  cur.read_vec(blob.error, "exit error");
  RankLedger& l = blob.ledger;
  std::uint32_t stash_count = 0;
  cur.read_each("ledger", blob.epoch_ns, l.msgs_sent, l.bytes_sent,
                l.msgs_recv, l.bytes_recv, l.compute_seconds, l.comm_seconds,
                stash_count);
  if (!cur.fits(stash_count, kStashEntryBytes, "stash")) return std::nullopt;
  for (std::uint32_t i = 0; i < stash_count; ++i) {
    std::uint32_t key = 0;
    std::uint64_t len = 0;
    cur.read_each("stash entry", key, len);
    // Keys are written ascending; anything else would not re-encode.
    if (!cur.ok() ||
        (!blob.stash.empty() && key <= blob.stash.rbegin()->first) ||
        !cur.read_run(blob.stash[key], len, "stash bytes")) {
      return std::nullopt;
    }
  }

  std::uint8_t traced = 0;
  cur.read(traced, "traced flag");
  if (!cur.ok() || traced > 1) return std::nullopt;
  blob.traced = traced == 1;
  if (blob.traced) {
    std::uint32_t nstrings = 0;
    cur.read(nstrings, "string count");
    if (!cur.fits(nstrings, kStringBytes, "strings")) return std::nullopt;
    blob.strings.resize(nstrings);
    for (std::string& str : blob.strings) cur.read_vec(str, "string");
    const auto indexes = [&blob](std::uint32_t idx) {
      return idx == ExitBlob::kNoString || idx < blob.strings.size();
    };
    std::uint32_t nrings = 0;
    cur.read(nrings, "ring count");
    if (!cur.fits(nrings, kRingBytes, "rings")) return std::nullopt;
    blob.rings.resize(nrings);
    for (ExitBlob::Ring& ring : blob.rings) {
      std::uint64_t nevents = 0;
      cur.read_each("ring", ring.rank, ring.dropped, nevents);
      if (!cur.fits(nevents, kEventBytes, "events")) return std::nullopt;
      ring.events.resize(static_cast<std::size_t>(nevents));
      for (ExitBlob::Event& ev : ring.events) {
        cur.read_each("event", ev.name, ev.cat, ev.kind, ev.ts_us, ev.dur_us,
                      ev.cpu_us);
        for (std::size_t k = 0; k < 3; ++k) {
          cur.read_each("event", ev.arg_name[k], ev.arg[k]);
        }
        cur.read(ev.phase, "event");
        if (!cur.ok() || ev.kind > 1 || !indexes(ev.name) ||
            !indexes(ev.cat) || !indexes(ev.arg_name[0]) ||
            !indexes(ev.arg_name[1]) || !indexes(ev.arg_name[2]) ||
            !indexes(ev.phase)) {
          return std::nullopt;
        }
      }
    }
  }

  std::uint32_t nmetrics = 0;
  cur.read(nmetrics, "metric count");
  if (!cur.fits(nmetrics, kMetricBytes, "metrics")) return std::nullopt;
  blob.metrics.resize(nmetrics);
  for (obs::MetricSample& m : blob.metrics) {
    std::uint8_t mkind = 0;
    cur.read(mkind, "metric kind");
    cur.read_vec(m.key.name, "metric name");
    cur.read(m.key.rank, "metric rank");
    cur.read_vec(m.key.phase, "metric phase");
    if (mkind == 0) {
      m.kind = obs::MetricSample::Kind::kCounter;
      cur.read(m.counter_value, "counter value");
    } else if (mkind == 1) {
      m.kind = obs::MetricSample::Kind::kGauge;
      cur.read(m.gauge_value, "gauge value");
    } else if (mkind == 2) {
      m.kind = obs::MetricSample::Kind::kHistogram;
      std::uint32_t nbuckets = 0;
      cur.read(nbuckets, "bucket count");
      if (!cur.fits(nbuckets, kBucketBytes, "buckets")) return std::nullopt;
      m.buckets.resize(nbuckets);
      for (auto& [bucket, n] : m.buckets) {
        cur.read_each("bucket", bucket, n);
        if (bucket < 0 || bucket >= obs::Histogram::kNumBuckets) {
          return std::nullopt;
        }
      }
      cur.read(m.hist_sum, "histogram sum");
    } else {
      return std::nullopt;  // unknown record: reject rather than misread
    }
  }
  if (!cur.expect_end("exit blob trailing bytes")) return std::nullopt;
  return blob;
}

namespace {

std::string blob_path(const std::string& dir, int rank) {
  return dir + "/rank_" + std::to_string(rank) + ".blob";
}

/// Obs state at fork time, captured in the child before running the body.
struct ObsBaseline {
  std::map<int, std::uint64_t> ring_seq;      ///< next seq per existing ring
  std::map<int, std::uint64_t> ring_dropped;
  std::vector<obs::MetricSample> metrics;
};

ObsBaseline capture_obs_baseline() {
  ObsBaseline base;
  if (obs::tracer().enabled()) {
    for (const auto& [rank, dropped] : obs::tracer().dropped_by_rank()) {
      base.ring_seq[rank] = obs::tracer().ring(rank)->peek_seq();
      base.ring_dropped[rank] = dropped;
    }
  }
  base.metrics = obs::registry().snapshot();
  return base;
}

/// The child's trace events recorded since fork, with a string table.
void capture_trace(ExitBlob& blob, const ObsBaseline& base) {
  blob.traced = obs::tracer().enabled();
  if (!blob.traced) return;
  std::map<std::string, std::uint32_t> table;
  const auto index = [&](const char* s) -> std::uint32_t {
    if (s == nullptr) return ExitBlob::kNoString;
    const auto [it, fresh] = table.try_emplace(
        s, static_cast<std::uint32_t>(blob.strings.size()));
    if (fresh) blob.strings.emplace_back(s);
    return it->second;
  };
  const auto dropped_now = obs::tracer().dropped_by_rank();
  for (const auto& [rank, evs] : obs::tracer().drain_all()) {
    ExitBlob::Ring ring;
    ring.rank = rank;
    std::uint64_t first_seq = 0;
    if (const auto it = base.ring_seq.find(rank); it != base.ring_seq.end()) {
      first_seq = it->second;
    }
    if (const auto it = dropped_now.find(rank); it != dropped_now.end()) {
      ring.dropped = it->second;
      if (const auto bit = base.ring_dropped.find(rank);
          bit != base.ring_dropped.end()) {
        ring.dropped -= bit->second;
      }
    }
    for (const obs::TraceEvent& ev : evs) {
      if (ev.seq < first_seq) continue;  // inherited from the parent
      ring.events.push_back(
          {.name = index(ev.name),
           .cat = index(ev.cat),
           .kind = static_cast<std::uint8_t>(ev.kind),
           .ts_us = ev.ts_us,
           .dur_us = ev.dur_us,
           .cpu_us = ev.cpu_us,
           .arg_name = {index(ev.arg0_name), index(ev.arg1_name),
                        index(ev.arg2_name)},
           .arg = {ev.arg0, ev.arg1, ev.arg2},
           .phase = index(ev.phase)});
    }
    if (ring.events.empty() && ring.dropped == 0) continue;
    blob.rings.push_back(std::move(ring));
  }
}

/// The child's metric changes since fork; unchanged instruments are left
/// out.
void capture_metrics(ExitBlob& blob, const ObsBaseline& base) {
  std::map<std::tuple<std::string, std::string, int>, const obs::MetricSample*>
      base_by_key;
  for (const auto& s : base.metrics) {
    base_by_key[{s.key.name, s.key.phase, s.key.rank}] = &s;
  }
  for (obs::MetricSample s : obs::registry().snapshot()) {
    const obs::MetricSample* prior = nullptr;
    if (const auto it = base_by_key.find({s.key.name, s.key.phase, s.key.rank});
        it != base_by_key.end()) {
      prior = it->second;
    }
    switch (s.kind) {
      case obs::MetricSample::Kind::kCounter:
        if (prior != nullptr) s.counter_value -= prior->counter_value;
        if (s.counter_value == 0) continue;
        break;
      case obs::MetricSample::Kind::kGauge:
        if (prior != nullptr && prior->gauge_value == s.gauge_value) continue;
        break;
      case obs::MetricSample::Kind::kHistogram: {
        std::map<int, std::uint64_t> deltas;
        for (const auto& [bucket, n] : s.buckets) deltas[bucket] = n;
        if (prior != nullptr) {
          s.hist_sum -= prior->hist_sum;
          for (const auto& [bucket, n] : prior->buckets) deltas[bucket] -= n;
        }
        s.buckets.clear();
        for (const auto& [bucket, n] : deltas) {
          if (n != 0) s.buckets.emplace_back(bucket, n);
        }
        if (s.buckets.empty() && s.hist_sum == 0) continue;
        break;
      }
    }
    blob.metrics.push_back(std::move(s));
  }
}

/// Serialize and atomically publish (tmp + rename) rank's exit blob.
void write_exit_blob(const std::string& dir, int rank, const Comm& comm,
                     ExitKind kind, const std::string& error,
                     const ObsBaseline& base) {
  ExitBlob blob;
  blob.rank = rank;
  blob.kind = kind;
  blob.error = error;
  blob.epoch_ns = obs::tracer().epoch_ns();
  blob.ledger = const_cast<Comm&>(comm).ledger();
  blob.stash = comm.stash();
  capture_trace(blob, base);
  capture_metrics(blob, base);
  const std::string b = encode_exit_blob(blob);

  const std::string tmp = dir + "/rank_" + std::to_string(rank) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(b.data(), static_cast<std::streamsize>(b.size()));
    if (!out.good()) return;  // parent treats a missing blob as a dead rank
  }
  ::rename(tmp.c_str(), blob_path(dir, rank).c_str());
}

struct ChildError {
  ExitKind kind = ExitKind::kOk;
  std::string message;
};

/// Merge rank's exit blob (if present and well-formed) into the run's cost,
/// the global tracer/registry, and the per-rank error slot. A missing or
/// corrupt blob means the rank died without unwinding (SIGKILL) — its
/// ledger and stash are simply lost, like a crashed machine's.
void merge_exit_blob(const std::string& dir, int rank, RunCost* cost,
                     ChildError* error) {
  std::string bytes;
  {
    std::ifstream in(blob_path(dir, rank), std::ios::binary);
    if (!in.is_open()) return;
    std::ostringstream data;
    data << in.rdbuf();
    bytes = std::move(data).str();
  }
  std::optional<ExitBlob> blob = decode_exit_blob(bytes);
  if (!blob || blob->rank != rank) return;
  error->kind = blob->kind;
  error->message = std::move(blob->error);
  cost->per_rank[static_cast<std::size_t>(rank)] = blob->ledger;
  cost->stash[static_cast<std::size_t>(rank)] = std::move(blob->stash);

  // Trace events: align child timestamps onto the parent's epoch and
  // re-record into the parent's rings. Epochs are normally identical (the
  // child inherited the parent's), making the adjustment zero; the merge
  // still carries it so a divergent epoch cannot silently skew the
  // timeline. Strings are interned to restore TraceEvent's static-lifetime
  // contract.
  if (blob->traced && obs::tracer().enabled()) {
    std::vector<const char*> strings;
    strings.reserve(blob->strings.size());
    for (const auto& str : blob->strings) {
      strings.push_back(obs::intern_string(str));
    }
    const auto str_at = [&strings](std::uint32_t idx) -> const char* {
      return idx == ExitBlob::kNoString ? nullptr : strings[idx];
    };
    const auto name_at = [&str_at](std::uint32_t idx) -> const char* {
      const char* s = str_at(idx);
      return s != nullptr ? s : "";
    };
    const std::int64_t epoch_skew_us =
        (static_cast<std::int64_t>(blob->epoch_ns) -
         static_cast<std::int64_t>(obs::tracer().epoch_ns())) /
        1000;
    for (const ExitBlob::Ring& ring : blob->rings) {
      obs::RankRing* rr = obs::tracer().ring(ring.rank);
      for (const ExitBlob::Event& e : ring.events) {
        obs::TraceEvent ev;
        ev.name = name_at(e.name);
        ev.cat = name_at(e.cat);
        ev.kind = static_cast<obs::TraceEvent::Kind>(e.kind);
        ev.rank = ring.rank;
        ev.ts_us = static_cast<std::uint64_t>(std::max<std::int64_t>(
            0, static_cast<std::int64_t>(e.ts_us) + epoch_skew_us));
        ev.dur_us = e.dur_us;
        ev.cpu_us = e.cpu_us;
        ev.arg0_name = str_at(e.arg_name[0]);
        ev.arg0 = e.arg[0];
        ev.arg1_name = str_at(e.arg_name[1]);
        ev.arg1 = e.arg[1];
        ev.arg2_name = str_at(e.arg_name[2]);
        ev.arg2 = e.arg[2];
        ev.phase = name_at(e.phase);
        rr->record(ev);
      }
      if (ring.dropped != 0) rr->add_dropped(ring.dropped);
    }
  }

  // Metric deltas fold into the parent's registry.
  auto& reg = obs::registry();
  for (const obs::MetricSample& m : blob->metrics) {
    const auto& k = m.key;
    switch (m.kind) {
      case obs::MetricSample::Kind::kCounter:
        reg.counter(k.name, k.rank, k.phase).inc(m.counter_value);
        break;
      case obs::MetricSample::Kind::kGauge:
        reg.gauge(k.name, k.rank, k.phase).set(m.gauge_value);
        break;
      case obs::MetricSample::Kind::kHistogram: {
        obs::Histogram& h = reg.histogram(k.name, k.rank, k.phase);
        for (const auto& [bucket, n] : m.buckets) h.merge_bucket(bucket, n);
        h.merge_sum(m.hist_sum);
        break;
      }
    }
  }
}

/// Body of a forked rank process. Never returns.
[[noreturn]] void run_child(ProcTransport& tp, int rank,
                            const std::function<void(Comm&)>& body,
                            const std::string& blob_dir,
                            const CostParams& cost, const FaultPlan& faults) {
  util::set_log_rank(rank);
  const ObsBaseline base = capture_obs_baseline();
  Comm comm(tp, cost, faults, rank);
  ExitKind kind = ExitKind::kOk;
  std::string error;
  try {
    body(comm);
    tp.mark_done(rank);
  } catch (const KilledError& e) {
    // A *thrown* kill (user code simulating a crash without the transport's
    // real SIGKILL): unwind, mark dead, still ship the blob — matching the
    // thread transport, where a killed rank's ledger is still collected.
    kind = ExitKind::kKilled;
    error = e.what();
    tp.mark_dead(rank);
  } catch (const TimeoutError& e) {
    kind = ExitKind::kTimeout;
    error = e.what();
    tp.claim_first_error(rank);
    tp.abort_all();
  } catch (const AbortError& e) {
    kind = ExitKind::kAbort;
    error = e.what();
    tp.claim_first_error(rank);
    tp.abort_all();
  } catch (const std::exception& e) {
    kind = ExitKind::kError;
    error = e.what();
    tp.claim_first_error(rank);
    tp.abort_all();
  } catch (...) {
    kind = ExitKind::kError;
    error = "unknown exception";
    tp.claim_first_error(rank);
    tp.abort_all();
  }
  write_exit_blob(blob_dir, rank, comm, kind, error, base);
  std::fflush(nullptr);
  // _exit, not exit: atexit handlers and static destructors belong to the
  // parent's image and must not run (twice) in the child.
  switch (kind) {
    case ExitKind::kOk:
      ::_exit(0);
    case ExitKind::kKilled:
      ::_exit(4);
    case ExitKind::kAbort:
      ::_exit(3);
    default:
      ::_exit(2);
  }
}

}  // namespace

RunCost Runtime::run_proc(const std::function<void(Comm&)>& body) {
  const int p = num_ranks_;
  const bool traced = obs::tracer().enabled();

  // Open the driver "join" span before forking: its ring() call pins the
  // trace epoch, which the children then inherit — the property the
  // post-run timestamp merge relies on.
  detail::WaitScope join_sp(
      traced ? obs::tracer().ring(obs::kDriverTid) : nullptr,
      traced ? &obs::registry().histogram("comm.wait_us", obs::kDriverTid,
                                          obs::current_phase())
             : nullptr,
      obs::kDriverTid, "join");
  join_sp.arg("ranks", static_cast<std::uint64_t>(p));

  char dir_template[] = "/tmp/pgasm-proc-XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    throw std::runtime_error("proc transport: mkdtemp failed");
  }
  const std::string blob_dir = dir_template;
  // Removes the blobs and their directory on every way out of this call,
  // exceptions included (forked children _exit and never run it).
  struct BlobDirCleanup {
    const std::string& dir;
    int p;
    ~BlobDirCleanup() {
      for (int r = 1; r < p; ++r) {
        ::unlink(blob_path(dir, r).c_str());
        ::unlink((dir + "/rank_" + std::to_string(r) + ".tmp").c_str());
      }
      ::rmdir(dir.c_str());
    }
  } cleanup_dir{blob_dir, p};

  ProcTransport tp(p, proc_ring_bytes_);

  // Flush stdio before forking: with stdout piped (fully buffered), any
  // pending output would be duplicated into every child and flushed again
  // when the child exits.
  std::fflush(nullptr);

  std::vector<pid_t> pids(static_cast<std::size_t>(p), -1);
  for (int r = 1; r < p; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (int k = 1; k < r; ++k) ::kill(pids[static_cast<std::size_t>(k)], SIGKILL);
      for (int k = 1; k < r; ++k) {
        int status = 0;
        ::waitpid(pids[static_cast<std::size_t>(k)], &status, 0);
      }
      throw std::runtime_error("proc transport: fork failed: " +
                               std::string(std::strerror(errno)));
    }
    if (pid == 0) {
      run_child(tp, r, body, blob_dir, cost_, faults_);  // never returns
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }

  // Reaper: publishes silent child deaths (real SIGKILLs from crash_self,
  // or any exit that isn't one of ours) through the shared dead flags, so
  // survivors unblock the same way the thread transport's mark_dead wakes
  // its waiters.
  const FaultPlan& faults = faults_;
  std::thread reaper([&tp, &pids, &faults, p] {
    int remaining = p - 1;
    while (remaining > 0) {
      int status = 0;
      const pid_t pid = ::waitpid(-1, &status, 0);
      if (pid < 0) break;  // ECHILD: nothing left to reap
      int rank = -1;
      for (int r = 1; r < p; ++r) {
        if (pids[static_cast<std::size_t>(r)] == pid) {
          rank = r;
          break;
        }
      }
      if (rank < 0) continue;
      --remaining;
      const bool clean = WIFEXITED(status) &&
                         (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 2 ||
                          WEXITSTATUS(status) == 3 || WEXITSTATUS(status) == 4);
      if (!clean) {
        tp.mark_dead(rank);
        // A SIGKILLed child takes its trace ring with it, so its
        // "fault_crash" instant (runtime.cpp emits it right before
        // crash_self) is lost with the address space. The parent knows the
        // plan, and the reap observes the kill — synthesize the instant
        // here, at reap time, so the merged trace tells the same recovery
        // story as the thread transport's. Only for planned crashes: an
        // unexplained death stays unexplained in the trace too.
        if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
          for (const auto& c : faults.crashes) {
            if (c.rank == rank) {
              obs::instant(rank, "fault_crash", "vmpi", "at_send", c.at_send);
              break;
            }
          }
        }
      }
    }
  });

  // Rank 0 runs on this thread: driver code reads state the rank 0 body
  // mutates (master scheduler results, checkpoint handles), which only
  // works if rank 0 shares the driver's address space.
  const int prior_log_rank = util::log_rank();
  util::set_log_rank(0);
  Comm comm0(tp, cost_, faults_, 0);
  std::exception_ptr rank0_error;
  try {
    body(comm0);
    tp.mark_done(0);
  } catch (const KilledError&) {
    tp.mark_dead(0);
  } catch (...) {
    rank0_error = std::current_exception();
    tp.claim_first_error(0);
    tp.abort_all();
  }
  util::set_log_rank(prior_log_rank);

  reaper.join();
  join_sp.finish();

  RunCost cost;
  cost.per_rank.resize(static_cast<std::size_t>(p));
  cost.stash.resize(static_cast<std::size_t>(p));
  cost.per_rank[0] = comm0.ledger();
  cost.stash[0] = std::move(comm0.stash_);

  std::vector<ChildError> errors(static_cast<std::size_t>(p));
  for (int r = 1; r < p; ++r) {
    merge_exit_blob(blob_dir, r, &cost, &errors[static_cast<std::size_t>(r)]);
  }
  cost.faults = tp.counters().snapshot();
  publish_cost(cost);

  const int fer = tp.first_error_rank();
  if (fer == 0 && rank0_error != nullptr) {
    try {
      std::rethrow_exception(rank0_error);
    } catch (const AbortError&) {
      throw std::runtime_error("vmpi run aborted");
    }
  }
  if (fer >= 0) {
    const ChildError& err = errors[static_cast<std::size_t>(fer)];
    switch (err.kind) {
      case ExitKind::kTimeout:
        throw TimeoutError(err.message);
      case ExitKind::kError:
        throw std::runtime_error(err.message);
      default:
        // Abort (secondary casualty reported first), or the blob is gone.
        throw std::runtime_error("vmpi run aborted");
    }
  }
  return cost;
}

}  // namespace pgasm::vmpi
