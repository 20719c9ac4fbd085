// Fixture stub: the GST construction path, without finish_build.
namespace fixture {

int build() { return 0; }

}  // namespace fixture
