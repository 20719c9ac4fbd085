// Fixture: a GST table row whose decoder (recv_value) and handler
// (finish_build) exist in no GST protocol source (2 BAD).
#pragma once

#include <cstdint>

namespace fixture {

enum class GstMsgKind : std::uint8_t {
  kFtDone = 213,
};

struct GstMsgSpec {
  GstMsgKind kind;
  const char* direction;
  const char* encoder;
  const char* decoder;
  const char* handler;
  const char* on_drop;
  const char* on_duplicate;
};

inline constexpr GstMsgSpec kGstProtocol[] = {
    {GstMsgKind::kFtDone, "worker->coordinator", "send_value", "recv_value",
     "finish_build", "coordinator times out", "answered by re-send"},
};

}  // namespace fixture
