#include "core/cluster_protocol.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace pgasm::core {

namespace {

// A corrupt peer payload is counted, traced, logged, and dropped — never
// decoded into garbage and never fatal. The retransmission machinery
// recovers the exchange: a dropped report solicits the worker's retransmit,
// a dropped reply is re-requested by the duplicate report. A persistently
// corrupting peer starves into the heartbeat death path.
void note_decode_error(int rank, const WireError& err) {
  obs::registry().counter("wire.decode_errors", rank).inc();
  obs::instant(rank, "decode_error", "cluster", "code",
               static_cast<std::uint64_t>(err.code), "offset", err.offset);
  util::log_warn() << "dropping undecodable payload: " << err.message();
}

}  // namespace

int poll_heartbeats(vmpi::Comm& comm) {
  int n = 0;
  vmpi::Status st;
  while (comm.iprobe(0, to_tag(MsgKind::kPing), &st)) {
    const auto epoch = comm.recv_value<std::uint64_t>(0, to_tag(MsgKind::kPing));
    comm.send_value<std::uint64_t>(0, to_tag(MsgKind::kAck), epoch);
    ++n;
  }
  return n;
}

int drain_shutdown_messages(vmpi::Comm& comm) {
  int n = 0;
  vmpi::Status st;
  while (comm.iprobe(0, to_tag(MsgKind::kPing), &st)) {
    comm.recv_value<std::uint64_t>(0, to_tag(MsgKind::kPing));
    ++n;
  }
  // Duplicate replies queued behind the terminate (a zombie-path terminate
  // re-sent after a false death declaration, or retransmission crossfire).
  while (comm.iprobe(0, to_tag(MsgKind::kReply), &st)) {
    comm.recv(0, to_tag(MsgKind::kReply));
    ++n;
  }
  return n;
}

int drain_worker_traffic(vmpi::Comm& comm) {
  int n = 0;
  vmpi::Status st;
  while (comm.iprobe(vmpi::kAnySource, to_tag(MsgKind::kAck), &st)) {
    comm.recv_value<std::uint64_t>(st.source, to_tag(MsgKind::kAck));
    ++n;
  }
  while (comm.iprobe(vmpi::kAnySource, to_tag(MsgKind::kReport), &st)) {
    comm.recv(st.source, to_tag(MsgKind::kReport));
    ++n;
  }
  return n;
}

WireResult<WorkerReport> recv_report(vmpi::Comm& comm, int source) {
  const auto raw = comm.recv(source, to_tag(MsgKind::kReport));
  auto scope = comm.compute_scope();
  auto decoded = try_decode_report(std::span<const std::byte>(raw));
  if (!decoded) note_decode_error(comm.rank(), decoded.error());
  return decoded;
}

bool consume_pending_terminate(vmpi::Comm& comm) {
  vmpi::Status qs;
  while (comm.iprobe(0, to_tag(MsgKind::kReply), &qs)) {
    const auto raw = comm.recv(0, to_tag(MsgKind::kReply));
    const auto reply = try_decode_reply(std::span<const std::byte>(raw));
    if (!reply) {
      note_decode_error(comm.rank(), reply.error());
      continue;
    }
    if (reply.value().terminate) return true;
  }
  return false;
}

void send_report(vmpi::Comm& comm, const ClusterParams& params,
                 const WorkerReport& report) {
  auto payload = encode_report(report);
  if (params.use_ssend) {
    comm.ssend_payload(0, to_tag(MsgKind::kReport), std::move(payload));
  } else {
    comm.send_payload(0, to_tag(MsgKind::kReport), std::move(payload));
  }
}

MasterReply await_reply(vmpi::Comm& comm, const ClusterParams& params,
                        std::uint64_t seq, const WorkerReport& report) {
  util::WallTimer contact;     // master silence: reset by pings and replies
  util::WallTimer reply_wait;  // since the report was (re)sent
  bool parked = false;
  std::uint32_t retransmits = 0;
  for (;;) {
    if (poll_heartbeats(comm) > 0) contact.restart();
    if (comm.rank_failed(0))
      throw vmpi::TimeoutError("worker: master rank failed");
    if (comm.rank_done(0)) {
      vmpi::Status qs;
      if (!comm.iprobe(0, to_tag(MsgKind::kReply), &qs)) {
        // The master finished and nothing is queued for us: our terminate
        // was lost in flight. Act on the implied terminate.
        MasterReply bye;
        bye.terminate = 1;
        return bye;
      }
    }
    const double left = params.master_timeout - contact.elapsed();
    if (left <= 0)
      throw vmpi::TimeoutError("worker: no contact from master within " +
                               std::to_string(params.master_timeout) + "s");
    if (reply_wait.elapsed() >= params.reply_timeout) {
      // Parked retransmits are uncapped keepalives: the park proved the
      // master received the report, and the duplicate solicits the cached
      // reply again in case the eventual dispatch was itself dropped.
      if (!parked && ++retransmits > params.reply_max_retries)
        throw vmpi::TimeoutError(
            "worker: no reply from master after " +
            std::to_string(params.reply_max_retries) + " retransmits");
      obs::instant(comm.rank(), "retransmit", "cluster", "seq", seq, "parked",
                   parked ? 1 : 0);
      send_report(comm, params, report);
      reply_wait.restart();
    }
    std::vector<std::byte> raw;
    try {
      raw = comm.recv_timeout(0, to_tag(MsgKind::kReply), std::min(0.05, left));
    } catch (const vmpi::TimeoutError&) {
      continue;  // slice expired; answer pings and re-check the bounds
    }
    contact.restart();
    auto decoded = [&] {
      auto scope = comm.compute_scope();
      return try_decode_reply(std::span<const std::byte>(raw));
    }();
    if (!decoded) {
      // Drop it: reply_wait keeps running, so the reply_timeout path
      // retransmits the report and the master re-sends its cached reply.
      note_decode_error(comm.rank(), decoded.error());
      continue;
    }
    MasterReply reply = std::move(decoded).take_or_throw();
    if (reply.terminate) return reply;
    if (reply.seq != seq) continue;  // stale duplicate of an older reply
    if (reply.park) {
      // Report acknowledged, nothing to do yet: wait for the next dispatch
      // with keepalive (uncapped) retransmission only.
      parked = true;
      retransmits = 0;
      reply_wait.restart();
      continue;
    }
    return reply;
  }
}

void ReplyChannel::send(vmpi::Comm& comm, int worker, MasterReply& reply) {
  reply.seq = last_seq_[worker];
  auto bytes = encode_reply(reply);
  // The cache keeps its own copy — a retransmitted report may need this
  // exact reply again after the payload below has been consumed.
  last_reply_[worker].assign(
      reinterpret_cast<const std::uint8_t*>(bytes.data()),
      reinterpret_cast<const std::uint8_t*>(bytes.data()) + bytes.size());
  comm.send_payload(worker, to_tag(MsgKind::kReply), std::move(bytes));
}

void ReplyChannel::resend_cached(vmpi::Comm& comm, int worker) {
  const auto& cached = last_reply_[worker];
  if (cached.empty()) return;
  comm.send(worker, to_tag(MsgKind::kReply), cached.data(), cached.size());
}

void heartbeat_round(vmpi::Comm& comm, const ClusterParams& params,
                     std::uint64_t epoch,
                     const std::vector<std::uint8_t>& alive,
                     const std::vector<std::uint8_t>& terminated,
                     std::uint64_t& heartbeats_sent,
                     const std::function<void(int)>& declare_dead) {
  const int p = comm.size();
  obs::Span hb_span = obs::span(0, "heartbeat_round", "cluster");
  std::vector<int> pinged;
  for (int w = 1; w < p; ++w) {
    if (!alive[w] || terminated[w]) continue;
    if (comm.rank_failed(w)) {
      declare_dead(w);
      continue;
    }
    vmpi::Status s;
    if (comm.iprobe(w, to_tag(MsgKind::kReport), &s)) continue;
    comm.send_value<std::uint64_t>(w, to_tag(MsgKind::kPing), epoch);
    ++heartbeats_sent;
    pinged.push_back(w);
  }
  hb_span.arg("epoch", epoch);
  hb_span.arg("pinged", pinged.size());
  util::WallTimer t;
  while (!pinged.empty()) {
    const double left = params.worker_timeout - t.elapsed();
    if (left <= 0) break;
    try {
      vmpi::Status ack;
      const auto got = comm.recv_value_timeout<std::uint64_t>(
          vmpi::kAnySource, to_tag(MsgKind::kAck), left, &ack);
      if (got != epoch) continue;  // stale ack from an old round
      pinged.erase(std::remove(pinged.begin(), pinged.end(), ack.source),
                   pinged.end());
    } catch (const vmpi::TimeoutError&) {
      break;
    }
  }
  for (int w : pinged) {
    vmpi::Status s;
    if (comm.iprobe(w, to_tag(MsgKind::kReport), &s)) continue;  // reported meanwhile
    declare_dead(w);
  }
}

}  // namespace pgasm::core
