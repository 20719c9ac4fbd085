// Fixture: protocol tables whose named identifiers and state markers are
// missing from the stub sources beside them. W001 must flag each BAD cell
// or state (13 findings in all) and accept the cells whose names exist:
// encode_report (core/wire.hpp) and send_value (vmpi/runtime.hpp).
#pragma once

#include <cstdint>

namespace fixture {

enum class MsgKind : std::uint8_t {
  kReport = 101,
  kPing = 103,
};

enum class MasterState : std::uint8_t {
  kProbe,      // marker present in core/parallel_cluster.cpp
  kTerminate,  // BAD: no marker
};

enum class WorkerState : std::uint8_t {
  kGenerate,  // BAD: no marker
  kShutdown,  // BAD: no marker
};

struct MsgSpec {
  MsgKind kind;
  const char* direction;
  const char* encoder;
  const char* decoder;
  const char* handler;
  const char* on_drop;
  const char* on_duplicate;
};

// kReport: try_decode_report is neither declared in core/wire.hpp nor
// present in any source (2 BAD), the pair has no round-trip test (BAD),
// and recv_report exists only in a comment (BAD). kPing: recv_value and
// poll_heartbeats exist nowhere (2 BAD).
inline constexpr MsgSpec kProtocol[] = {
    {MsgKind::kReport, "worker->master", "encode_report", "try_decode_report",
     "recv_report", "retransmit", "seq match"},
    {MsgKind::kPing, "master->worker", "send_value", "recv_value",
     "poll_heartbeats", "re-ping", "epoch stamp"},
};

struct WorkerRecvSpec {
  WorkerState state;
  MsgKind kind;
  const char* handler;
};

inline constexpr WorkerRecvSpec kWorkerRecvs[] = {
    {WorkerState::kGenerate, MsgKind::kPing, "poll_heartbeats"},  // BAD
};

struct MasterRecvSpec {
  MasterState state;
  MsgKind kind;
  const char* handler;
};

inline constexpr MasterRecvSpec kMasterRecvs[] = {
    {MasterState::kProbe, MsgKind::kReport, "recv_report"},  // BAD
};

}  // namespace fixture
