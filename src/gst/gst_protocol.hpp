// Message-level protocol for fault-tolerant distributed GST construction
// (build_distributed_gst_ft in parallel_build.cpp): the coordinator
// (rank 0) collects bucket histograms, plans bucket ownership, referees the
// suffix redistribution, and confirms completion with a Done/Final/FinalAck
// handshake. Declared as data, mirroring core/cluster_protocol.hpp: the
// static_asserts below check the table, pgasm-lint W001 checks that the
// forms and handlers it names exist in the sources, and pgasm-lint W015
// demands that every wire tag appear in exactly one declarative table.
//
// Recovery philosophy (differs from the clustering protocol): every
// message's content is a pure function of (global store, params, owner
// table), so a receiver that gives up waiting RECOMPUTES the missing
// contribution locally instead of demanding a retransmit. The only
// re-request in the protocol is the plan (kFtPlanReq), because the plan
// depends on coordinator-private liveness decisions and cannot be
// recomputed by a worker.
#pragma once

#include <cstdint>

#include "util/protocol_table.hpp"

namespace pgasm::gst {

/// Protocol message kinds for the FT construction path. The enumerator
/// values ARE the vmpi tags on the wire; range 210+ keeps clear of the
/// clustering protocol's tag space (101-104). to_tag() converts at the
/// comm boundary. -Werror=switch plus pgasm-lint W009 keep every dispatch
/// over this enum exhaustive and default-free.
enum class GstMsgKind : std::uint8_t {
  kFtHist = 210,      ///< worker -> 0: local bucket histogram
  kFtPlan = 211,      ///< 0 -> worker: initial owner table
  kFtSuffix = 212,    ///< rank -> rank: bucket contributions
  kFtDone = 213,      ///< worker -> 0: portion built
  kFtFinal = 214,     ///< 0 -> worker: final owner table
  kFtPlanReq = 215,   ///< worker -> 0: re-send the plan
  kFtFinalAck = 216,  ///< worker -> 0: final table received
};

/// Every protocol kind, for the table checks below.
inline constexpr GstMsgKind kAllGstMsgKinds[] = {
    GstMsgKind::kFtHist,  GstMsgKind::kFtPlan,    GstMsgKind::kFtSuffix,
    GstMsgKind::kFtDone,  GstMsgKind::kFtFinal,   GstMsgKind::kFtPlanReq,
    GstMsgKind::kFtFinalAck,
};

/// vmpi tag for a message kind (the enumerator value, by construction).
constexpr int to_tag(GstMsgKind kind) noexcept {
  return static_cast<int>(kind);
}

// --- Declarative protocol table --------------------------------------------
//
// One row per message kind: direction, send/recv forms, the consuming
// handler, and the recovery/defence story (the FT path's correctness
// argument). An empty cell fails the build, not a shrug.

struct GstMsgSpec {
  GstMsgKind kind;
  const char* direction;     ///< who sends to whom
  const char* encoder;       ///< producing send form
  const char* decoder;       ///< consuming recv form
  const char* handler;       ///< code that consumes the message
  const char* on_drop;       ///< how a lost instance is recovered
  const char* on_duplicate;  ///< how a re-delivered instance is defused
};

inline constexpr GstMsgSpec kGstProtocol[] = {
    {GstMsgKind::kFtHist, "worker->coordinator", "send_vector",
     "recv_vector_timeout", "build_distributed_gst_ft",
     "coordinator recomputes the silent rank's histogram locally via "
     "enumerate_suffixes_range and plans without it",
     "each worker sends exactly one histogram; a rank recovered locally and "
     "then heard from is already planned around"},
    {GstMsgKind::kFtPlan, "coordinator->worker", "send_vector",
     "recv_vector_timeout", "build_distributed_gst_ft",
     "worker re-requests via kFtPlanReq until kCoordinatorWaitTries is "
     "exhausted; a dead coordinator is fatal (TimeoutError)",
     "idempotent: the plan is identical on every re-send"},
    {GstMsgKind::kFtSuffix, "rank->rank", "send_vector",
     "recv_vector_timeout", "build_distributed_gst_ft",
     "receiver recomputes the sender's contribution locally via "
     "slice_contribution (content is a pure function of the global store)",
     "one message per (sender, receiver) pair; a locally recovered "
     "contribution supersedes any late arrival, which is never received"},
    {GstMsgKind::kFtDone, "worker->coordinator", "send_value",
     "recv_value", "build_distributed_gst_ft",
     "coordinator times out, treats the silent rank as lost, and reassigns "
     "its buckets to confirmed survivors (LPT over current loads)",
     "duplicate Done doubles as a Final re-request: the coordinator answers "
     "it by re-sending kFtFinal"},
    {GstMsgKind::kFtFinal, "coordinator->worker", "send_vector",
     "recv_vector_timeout", "build_distributed_gst_ft",
     "worker re-sends kFtDone until the Final arrives; a survivor that "
     "never learns the final table aborts (one-table invariant)",
     "idempotent: the final table is identical on every re-send"},
    {GstMsgKind::kFtPlanReq, "worker->coordinator",
     "send_value", "recv_value", "service_plan_reqs",
     "worker re-sends the request on every plan-recv timeout",
     "idempotent: every request is answered with the same plan"},
    {GstMsgKind::kFtFinalAck, "worker->coordinator",
     "send_value", "recv_value", "build_distributed_gst_ft",
     "coordinator re-sends kFtFinal to unacked survivors on every ack "
     "timeout until ft_max_retries idle rounds pass",
     "idempotent: the ack carries only the sender's rank"},
};

static_assert(util::protocol::one_row_per_kind(kAllGstMsgKinds, kGstProtocol),
              "every GstMsgKind needs exactly one kGstProtocol row");
static_assert(util::protocol::no_empty_cell(kGstProtocol),
              "every kGstProtocol cell must be filled");

// Integer tag aliases (single source of truth: GstMsgKind). The FT path
// carries plain vectors/values, no bespoke codecs; pgasm-lint W015 requires
// each of these tags to appear in exactly one declarative protocol table
// (this one).
inline constexpr int kTagFtHist = to_tag(GstMsgKind::kFtHist);
inline constexpr int kTagFtPlan = to_tag(GstMsgKind::kFtPlan);
inline constexpr int kTagFtSuffix = to_tag(GstMsgKind::kFtSuffix);
inline constexpr int kTagFtDone = to_tag(GstMsgKind::kFtDone);
inline constexpr int kTagFtFinal = to_tag(GstMsgKind::kFtFinal);
inline constexpr int kTagFtPlanReq = to_tag(GstMsgKind::kFtPlanReq);
inline constexpr int kTagFtFinalAck = to_tag(GstMsgKind::kFtFinalAck);

}  // namespace pgasm::gst
