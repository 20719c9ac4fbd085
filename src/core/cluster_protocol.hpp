// Message-level protocol for the master–worker clustering loop (paper
// Fig. 6), split out of the coordinator: wire tags, heartbeat ping/ack,
// the worker's report-send/reply-wait state machine with retransmission,
// and the master's per-worker reply channel with its duplicate-report
// defence. Scheduling policy (what to dispatch, when to terminate) lives in
// cluster_scheduler.*; this layer only moves and acknowledges messages.
//
// Zero-copy discipline: reports and replies are encoded straight into vmpi
// payload buffers and MOVED into the destination mailbox
// (Comm::send_payload). The worker's retransmission path re-encodes from
// the kept WorkerReport — retransmits are rare, first sends are not — and
// the master's reply cache keeps the encoded bytes because a cached reply
// must survive to be re-sent.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/cluster_params.hpp"
#include "core/wire.hpp"
#include "gst/gst_protocol.hpp"
#include "util/protocol_table.hpp"
#include "vmpi/runtime.hpp"

namespace pgasm::core {

/// Protocol message kinds. The enumerator values ARE the vmpi tags on the
/// wire (kept from the integer-tag era, so old traces stay valid); to_tag()
/// converts at the comm boundary.
/// Being an enum class makes every dispatch switch compiler-checked:
/// -Werror=switch (always on, see pgasm_warnings) turns an unhandled kind
/// into a build break, and pgasm-lint W009 additionally rejects a silent
/// `default:` that would mask one.
enum class MsgKind : std::uint8_t {
  kReport = 101,  ///< worker -> master: results + new pairs + progress
  kReply = 102,   ///< master -> worker: batch / park / terminate
  kPing = 103,    ///< master -> worker heartbeat (epoch-stamped u64)
  kAck = 104,     ///< worker -> master heartbeat ack (echoes the epoch)
};

/// Every protocol kind, for the table checks below.
inline constexpr MsgKind kAllMsgKinds[] = {MsgKind::kReport, MsgKind::kReply,
                                           MsgKind::kPing, MsgKind::kAck};

/// vmpi tag for a message kind (the enumerator value, by construction).
constexpr int to_tag(MsgKind kind) noexcept { return static_cast<int>(kind); }

/// Stable lowercase name ("report", "reply", "ping", "ack") for logs and
/// trace args. Exhaustive switch: adding a MsgKind without naming it here
/// is a compile error.
constexpr const char* msg_kind_name(MsgKind kind) noexcept {
  switch (kind) {
    case MsgKind::kReport:
      return "report";
    case MsgKind::kReply:
      return "reply";
    case MsgKind::kPing:
      return "ping";
    case MsgKind::kAck:
      return "ack";
  }
  return "?";  // unreachable for valid kinds; keeps the function total
}

// --- Declarative protocol table --------------------------------------------
//
// One row per message kind: direction, codec pair, consuming handler, and —
// because the fault-tolerance layer's whole correctness argument rests on
// them — the recovery path when an instance is dropped and the defence when
// it is duplicated. The static_asserts after the tables check them against
// each other; an empty cell fails the build, not a shrug. pgasm-lint W001
// reads the codec pairs from this table and checks that every encoder,
// decoder and handler named here exists in the protocol sources.

struct MsgSpec {
  MsgKind kind;
  const char* direction;     ///< "worker->master" or "master->worker"
  const char* encoder;       ///< producing codec / send form
  const char* decoder;       ///< consuming codec / recv form
  const char* handler;       ///< function that consumes the message
  const char* on_drop;       ///< how a lost instance is recovered
  const char* on_duplicate;  ///< how a re-delivered instance is defused
};

inline constexpr MsgSpec kProtocol[] = {
    {MsgKind::kReport, "worker->master", "encode_report",
     "try_decode_report", "recv_report",
     "reply_timeout retransmit in await_reply",
     "ReplyChannel::is_duplicate seq match -> resend_cached"},
    {MsgKind::kReply, "master->worker", "encode_reply",
     "try_decode_reply", "await_reply",
     "duplicate report solicits ReplyChannel::resend_cached",
     "stale seq discarded by await_reply seq filter"},
    {MsgKind::kPing, "master->worker", "send_value",
     "recv_value", "poll_heartbeats",
     "next heartbeat_round or keepalive_pings re-pings",
     "idempotent: every ping is answered with its own epoch"},
    {MsgKind::kAck, "worker->master", "send_value",
     "recv_value", "heartbeat_round",
     "non-responder is passed to declare_dead (false positive is safe)",
     "stale-epoch acks filtered by the epoch stamp"},
};

/// Table row for a kind; nullptr when the table misses one (the
/// one-row-per-kind static_assert below rules that out).
constexpr const MsgSpec* find_spec(MsgKind kind) noexcept {
  for (const MsgSpec& spec : kProtocol) {
    if (spec.kind == kind) return &spec;
  }
  return nullptr;
}

// --- Master state machine ---------------------------------------------------
//
// The master pump (master_loop in parallel_cluster.cpp) as an explicit
// state/transition table. The implementation is a hand-rolled loop — this
// table is its contract: the static_asserts below prove that kTerminate is
// reachable from every state (no livelock by construction) and that every
// other state has an outgoing edge; the `// [MasterState::k*]` markers in
// master_loop tie the code back to the states (pgasm-lint W001 checks that
// each one exists).

enum class MasterState : std::uint8_t {
  kProbe,       ///< bounded wait for any worker report
  kHeartbeat,   ///< probe timed out: ping workers, reap non-responders
  kFold,        ///< decode + fold a report; answer duplicates from cache
  kDispatch,    ///< feed idle workers; dispatch, park, or terminate sender
  kCheckpoint,  ///< periodic recoverable-state write
  kTerminate,   ///< all workers terminated or dead; run over
};

inline constexpr MasterState kAllMasterStates[] = {
    MasterState::kProbe,    MasterState::kHeartbeat,  MasterState::kFold,
    MasterState::kDispatch, MasterState::kCheckpoint, MasterState::kTerminate,
};

/// Stable lowercase state name; exhaustive switch (see msg_kind_name).
constexpr const char* master_state_name(MasterState s) noexcept {
  switch (s) {
    case MasterState::kProbe:
      return "probe";
    case MasterState::kHeartbeat:
      return "heartbeat";
    case MasterState::kFold:
      return "fold";
    case MasterState::kDispatch:
      return "dispatch";
    case MasterState::kCheckpoint:
      return "checkpoint";
    case MasterState::kTerminate:
      return "terminate";
  }
  return "?";
}

struct MasterTransition {
  MasterState from;
  MasterState to;
  const char* on;  ///< the condition taking this edge
};

inline constexpr MasterTransition kMasterTransitions[] = {
    {MasterState::kProbe, MasterState::kFold, "report queued"},
    {MasterState::kProbe, MasterState::kHeartbeat, "probe timeout"},
    {MasterState::kHeartbeat, MasterState::kProbe,
     "pinged workers acked or were reaped; work remains"},
    {MasterState::kHeartbeat, MasterState::kTerminate,
     "remaining == 0 after reaping (all terminated or dead)"},
    {MasterState::kFold, MasterState::kDispatch,
     "report folded, zombie dismissed, or duplicate re-answered"},
    {MasterState::kDispatch, MasterState::kCheckpoint,
     "checkpoint cadence reached"},
    {MasterState::kDispatch, MasterState::kProbe, "reporter answered"},
    {MasterState::kDispatch, MasterState::kTerminate, "remaining == 0"},
    {MasterState::kCheckpoint, MasterState::kProbe, "checkpoint written"},
};

// --- Worker state machine ---------------------------------------------------
//
// The worker pump (worker_loop in parallel_cluster.cpp) as an explicit
// state/transition table, mirroring kMasterTransitions above. The
// `// [WorkerState::k*]` markers in worker_loop tie the code back to the
// states (pgasm-lint W001 checks that each one exists); the static_asserts
// below prove kShutdown reachable from every state and give every other
// state an outgoing edge. tools/verify/pgasm-model goes further: it
// composes this machine with the master machine and a bounded lossy
// channel and exhaustively proves deadlock freedom and
// terminate-reachability.

enum class WorkerState : std::uint8_t {
  kGenerate,    ///< answer pings, consume queued terminates, build a report
  kSendReport,  ///< hand the encoded report to the transport (ssend-aware)
  kAlign,       ///< align the previous batch while the reply is in flight
  kAwaitReply,  ///< wait for the reply to this seq; retransmit on timeout
  kApplyReply,  ///< adopt the new batch; rebuild taken-over portions
  kShutdown,    ///< terminate consumed (or implied); drain and exit
};

inline constexpr WorkerState kAllWorkerStates[] = {
    WorkerState::kGenerate,   WorkerState::kSendReport,
    WorkerState::kAlign,      WorkerState::kAwaitReply,
    WorkerState::kApplyReply, WorkerState::kShutdown,
};

/// Stable lowercase state name; exhaustive switch (see msg_kind_name).
constexpr const char* worker_state_name(WorkerState s) noexcept {
  switch (s) {
    case WorkerState::kGenerate:
      return "generate";
    case WorkerState::kSendReport:
      return "send_report";
    case WorkerState::kAlign:
      return "align";
    case WorkerState::kAwaitReply:
      return "await_reply";
    case WorkerState::kApplyReply:
      return "apply_reply";
    case WorkerState::kShutdown:
      return "shutdown";
  }
  return "?";
}

struct WorkerTransition {
  WorkerState from;
  WorkerState to;
  const char* on;  ///< the condition taking this edge
};

inline constexpr WorkerTransition kWorkerTransitions[] = {
    {WorkerState::kGenerate, WorkerState::kShutdown,
     "queued terminate consumed before the report send"},
    {WorkerState::kGenerate, WorkerState::kSendReport,
     "report built: results + new pairs + progress"},
    {WorkerState::kSendReport, WorkerState::kAlign,
     "report handed to the transport (rendezvoused when use_ssend)"},
    {WorkerState::kAlign, WorkerState::kAwaitReply,
     "previous batch aligned, heartbeats answered throughout"},
    {WorkerState::kAwaitReply, WorkerState::kAwaitReply,
     "reply_timeout: report retransmitted (master answers from cache)"},
    {WorkerState::kAwaitReply, WorkerState::kAwaitReply,
     "park reply: wait quietly with uncapped keepalive retransmits"},
    {WorkerState::kAwaitReply, WorkerState::kApplyReply,
     "dispatch reply matching this seq"},
    {WorkerState::kAwaitReply, WorkerState::kShutdown,
     "terminate reply (explicit, or implied by a finished master)"},
    {WorkerState::kApplyReply, WorkerState::kGenerate,
     "batch adopted; takeover portions rebuilt and fast-forwarded"},
};

// --- Receive-capability tables ----------------------------------------------
//
// Which (state, message kind) pairs each side may consume, and the handler
// that does it. pgasm-model checks every message consumption in the
// explored state space against these rows — a reachable consumption with no
// declared row is a property violation (an undeclared protocol path), and
// pgasm-lint W015 requires every wire tag to appear in exactly one
// declarative table.

struct WorkerRecvSpec {
  WorkerState state;
  MsgKind kind;
  const char* handler;
};

inline constexpr WorkerRecvSpec kWorkerRecvs[] = {
    {WorkerState::kGenerate, MsgKind::kPing, "poll_heartbeats"},
    {WorkerState::kGenerate, MsgKind::kReply, "consume_pending_terminate"},
    {WorkerState::kAlign, MsgKind::kPing, "poll_heartbeats"},
    {WorkerState::kAwaitReply, MsgKind::kPing, "poll_heartbeats"},
    {WorkerState::kAwaitReply, MsgKind::kReply, "await_reply"},
    {WorkerState::kApplyReply, MsgKind::kPing, "poll_heartbeats"},
    {WorkerState::kShutdown, MsgKind::kPing, "drain_shutdown_messages"},
    {WorkerState::kShutdown, MsgKind::kReply, "drain_shutdown_messages"},
};

struct MasterRecvSpec {
  MasterState state;
  MsgKind kind;
  const char* handler;
};

inline constexpr MasterRecvSpec kMasterRecvs[] = {
    {MasterState::kFold, MsgKind::kReport, "recv_report"},
    {MasterState::kHeartbeat, MsgKind::kAck, "heartbeat_round"},
    {MasterState::kDispatch, MsgKind::kAck, "keepalive_pings"},
    {MasterState::kTerminate, MsgKind::kReport, "drain_worker_traffic"},
    {MasterState::kTerminate, MsgKind::kAck, "drain_worker_traffic"},
};

// --- Table checks ----------------------------------------------------------
//
// Breaking any of these fails the pgasm_core build.

/// Each side's recv table holds only kinds sent its way (per the kProtocol
/// direction cells).
constexpr bool recv_tables_follow_directions() noexcept {
  using util::protocol::same_text;
  for (const WorkerRecvSpec& r : kWorkerRecvs) {
    if (!same_text(find_spec(r.kind)->direction, "master->worker")) {
      return false;
    }
  }
  for (const MasterRecvSpec& r : kMasterRecvs) {
    if (!same_text(find_spec(r.kind)->direction, "worker->master")) {
      return false;
    }
  }
  return true;
}

/// Every kind has a recv row on its destination side: somebody is declared
/// to consume it.
constexpr bool every_kind_received() noexcept {
  for (const MsgSpec& spec : kProtocol) {
    bool covered = false;
    if (util::protocol::same_text(spec.direction, "master->worker")) {
      for (const WorkerRecvSpec& r : kWorkerRecvs) {
        covered = covered || r.kind == spec.kind;
      }
    } else {
      for (const MasterRecvSpec& r : kMasterRecvs) {
        covered = covered || r.kind == spec.kind;
      }
    }
    if (!covered) return false;
  }
  return true;
}

/// The clustering and GST protocols share one vmpi tag namespace; their
/// tag ranges must not overlap, or a probe in one layer could consume the
/// other's message.
constexpr bool tag_ranges_disjoint() noexcept {
  int lo = to_tag(kAllMsgKinds[0]);
  int hi = lo;
  for (const MsgKind kind : kAllMsgKinds) {
    lo = to_tag(kind) < lo ? to_tag(kind) : lo;
    hi = to_tag(kind) > hi ? to_tag(kind) : hi;
  }
  for (const gst::GstMsgKind kind : gst::kAllGstMsgKinds) {
    if (gst::to_tag(kind) >= lo && gst::to_tag(kind) <= hi) return false;
  }
  return true;
}

static_assert(util::protocol::one_row_per_kind(kAllMsgKinds, kProtocol),
              "every MsgKind needs exactly one kProtocol row");
static_assert(util::protocol::no_empty_cell(kProtocol),
              "every kProtocol cell must be filled");
static_assert(util::protocol::terminal_reachable_from_all(
                  kAllMasterStates, kMasterTransitions,
                  MasterState::kTerminate),
              "kTerminate must be reachable from every MasterState");
static_assert(util::protocol::terminal_reachable_from_all(
                  kAllWorkerStates, kWorkerTransitions, WorkerState::kShutdown),
              "kShutdown must be reachable from every WorkerState");
static_assert(util::protocol::only_terminal_is_a_sink(
                  kAllMasterStates, kMasterTransitions,
                  MasterState::kTerminate),
              "kTerminate must have no outgoing edge, every other "
              "MasterState at least one");
static_assert(util::protocol::only_terminal_is_a_sink(
                  kAllWorkerStates, kWorkerTransitions, WorkerState::kShutdown),
              "kShutdown must have no outgoing edge, every other WorkerState "
              "at least one");
static_assert(util::protocol::every_state_entered(
                  kAllMasterStates, kMasterTransitions, MasterState::kProbe),
              "every MasterState but the start state kProbe must be entered "
              "by some edge");
static_assert(util::protocol::every_state_entered(
                  kAllWorkerStates, kWorkerTransitions, WorkerState::kGenerate),
              "every WorkerState but the start state kGenerate must be "
              "entered by some edge");
static_assert(util::protocol::every_edge_documented(kMasterTransitions),
              "every kMasterTransitions edge must document its condition");
static_assert(util::protocol::every_edge_documented(kWorkerTransitions),
              "every kWorkerTransitions edge must document its condition");
static_assert(recv_tables_follow_directions(),
              "a recv table declares a side receiving a kind kProtocol "
              "sends the other way");
static_assert(every_kind_received(),
              "every MsgKind needs a recv row on its destination side");
static_assert(tag_ranges_disjoint(),
              "clustering and GST tag ranges must not overlap");

/// Answer any queued heartbeat pings from the master. Returns how many were
/// answered (the worker's master-silence clock resets on contact).
int poll_heartbeats(vmpi::Comm& comm);

/// Master-side receive of the report already probed from `source`. A
/// payload that fails to decode (truncated, mistagged, corrupt counts) is
/// returned as a typed WireError — the caller drops it, the worker's
/// retransmission timer re-sends the report, and a healthy retransmit
/// recovers the exchange. Decode failures are counted in the
/// `wire.decode_errors` metric and traced as `decode_error` instants.
WireResult<WorkerReport> recv_report(vmpi::Comm& comm, int source);

/// Worker-side drain of unsolicited queued replies before a (possibly
/// synchronous) report send. Returns true when a terminate order was
/// consumed: this worker was declared dead (a false positive, since it is
/// here) or the run is over. Stale duplicate replies and undecodable
/// payloads are discarded.
bool consume_pending_terminate(vmpi::Comm& comm);

/// Worker-side shutdown drain, called once after a terminate is consumed.
/// Eats queued heartbeat pings WITHOUT acking them (the master has already
/// written this worker off — an ack now would itself be orphaned) plus any
/// duplicate replies behind the terminate. The master pings only ranks it
/// has not yet terminated and per-sender delivery is FIFO, so every such
/// ping is already queued by the time the terminate is read: after this
/// drain a fault-free run leaves no unreceived sends for the causal trace
/// analyzer to flag. Returns how many messages were consumed.
int drain_shutdown_messages(vmpi::Comm& comm);

/// Master-side shutdown drain: consume queued heartbeat acks and
/// retransmitted reports that crossed a terminate in flight. The receive
/// also matters for liveness under use_ssend — a written-off worker can be
/// parked inside a synchronous report send that only completes when the
/// message is consumed. Returns how many messages were consumed; call it
/// until every worker has exited so the final sweep is complete.
int drain_worker_traffic(vmpi::Comm& comm);

/// Encode and send a worker report to the master (moved payload; ssend when
/// the params ask for synchronous reports).
void send_report(vmpi::Comm& comm, const ClusterParams& params,
                 const WorkerReport& report);

/// Worker-side wait for the reply answering report `seq`, polling
/// heartbeats in short timeout slices. Pings prove the master alive but not
/// that it got the report, so they do not extend the reply deadline: after
/// params.reply_timeout without a matching reply (and not parked), the
/// report is retransmitted (re-encoded from `report`) — the master discards
/// the duplicate by seq and re-sends its cached reply, which recovers a
/// dropped report or a dropped reply alike. Throws TimeoutError when the
/// master has failed, has been silent (no reply, no ping) for
/// params.master_timeout seconds, or has not answered
/// params.reply_max_retries retransmissions. A master that finished without
/// this worker ever hearing a terminate (the terminate was lost) is treated
/// as an implied terminate.
MasterReply await_reply(vmpi::Comm& comm, const ClusterParams& params,
                        std::uint64_t seq, const WorkerReport& report);

/// Master-side per-worker reply channel: stamps every reply with the seq of
/// the worker's last processed report, caches the encoded bytes, and
/// answers duplicate (retransmitted) reports by re-sending the cached reply
/// instead of letting the master fold the results twice.
class ReplyChannel {
 public:
  explicit ReplyChannel(int p) : last_seq_(p, 0), last_reply_(p) {}

  /// Was this report already processed? (seq 0 = unsequenced, never a dup.)
  bool is_duplicate(int worker, std::uint64_t seq) const {
    return seq != 0 && seq == last_seq_[worker];
  }
  void note_seq(int worker, std::uint64_t seq) { last_seq_[worker] = seq; }

  /// Stamp reply.seq, encode, cache, and send to `worker`.
  void send(vmpi::Comm& comm, int worker, MasterReply& reply);
  /// Re-send the cached reply (no-op if none was ever sent).
  void resend_cached(vmpi::Comm& comm, int worker);

 private:
  std::vector<std::uint64_t> last_seq_;
  std::vector<std::vector<std::uint8_t>> last_reply_;
};

/// One epoch-stamped heartbeat round (master side). A worker whose report
/// is already queued is alive by definition (this also covers workers
/// blocked in a synchronous send to us). Anyone else gets a ping and a
/// bounded window to ack; non-responders are passed to `declare_dead`. A
/// false positive is safe: the "zombie"'s later reports still fold
/// idempotently and it is terminated on its next contact, at the cost of
/// some duplicated work.
void heartbeat_round(vmpi::Comm& comm, const ClusterParams& params,
                     std::uint64_t epoch,
                     const std::vector<std::uint8_t>& alive,
                     const std::vector<std::uint8_t>& terminated,
                     std::uint64_t& heartbeats_sent,
                     const std::function<void(int)>& declare_dead);

/// Ping every parked worker (their master-silence clocks get no replies)
/// and drain stray acks from previous rounds.
template <typename IdleRange>
void keepalive_pings(vmpi::Comm& comm, const IdleRange& idle,
                     const std::vector<std::uint8_t>& alive,
                     std::uint64_t epoch, std::uint64_t& heartbeats_sent) {
  vmpi::Status s;
  while (comm.iprobe(vmpi::kAnySource, to_tag(MsgKind::kAck), &s))
    (void)comm.recv_value<std::uint64_t>(s.source, to_tag(MsgKind::kAck));
  for (int w : idle) {
    if (!alive[w]) continue;
    comm.send_value<std::uint64_t>(w, to_tag(MsgKind::kPing), epoch);
    ++heartbeats_sent;
  }
}

}  // namespace pgasm::core
