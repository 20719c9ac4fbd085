// Fixture stub: recv_report and poll_heartbeats are named only in this
// comment and in a string, which W001 must not count as a definition.
namespace fixture {

const char* kNote = "poll_heartbeats";

}  // namespace fixture
