// Fixture stub: the send form exists, its recv_value counterpart does not.
#pragma once

namespace fixture {

void send_value(int dest, int tag, int value);

}  // namespace fixture
