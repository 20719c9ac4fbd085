// Fixture stub: the master pump carries the kProbe marker and no other.
namespace fixture {

void master_loop() {
  // [MasterState::kProbe]
}

}  // namespace fixture
