// Fixture stub: declares the encoder half of the report codec only.
#pragma once

#include <cstdint>
#include <vector>

namespace fixture {

std::vector<std::uint8_t> encode_report(int seq);

}  // namespace fixture
