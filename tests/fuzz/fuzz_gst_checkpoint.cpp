// Fuzz harness: the GST phase checkpoint (core/wire try_decode_gst_checkpoint).
//
// Properties enforced (abort on violation):
//   1. Totality: arbitrary bytes decode to a checkpoint or to a typed
//      WireError, never a crash, a throw or an unchecked allocation.
//   2. Canonical round-trip: an accepted checkpoint re-encodes to the
//      input bytes exactly.
//   3. The documented resume invariants hold for every accepted
//      checkpoint: prefix_w in [1, 12], 4^prefix_w owners each in
//      [-1, num_ranks), and role_done of size num_ranks. Resume indexes
//      the bucket array and spawns roles straight from these fields.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <utility>
#include <vector>

#include "core/wire.hpp"
#include "fuzz_driver.hpp"

namespace {

using pgasm::core::GstCheckpoint;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_gst_checkpoint property violated: %s\n",
                 what);
    std::abort();
  }
}

GstCheckpoint sample_checkpoint() {
  GstCheckpoint c;
  c.input_hash = 0x1234'5678'9abc'def0ull;
  c.params_hash = 42;
  c.num_ranks = 3;
  c.prefix_w = 1;
  c.bucket_owner = {0, -1, 2, 1};
  c.role_done = {1, 1, 0};
  return c;
}

}  // namespace

std::vector<std::vector<std::uint8_t>> pgasm_fuzz_seeds() {
  using pgasm::core::encode_gst_checkpoint;
  std::vector<std::vector<std::uint8_t>> seeds;
  const GstCheckpoint good = sample_checkpoint();
  seeds.push_back(encode_gst_checkpoint(good));
  GstCheckpoint wider = good;
  wider.prefix_w = 2;
  wider.bucket_owner.assign(16, 1);
  seeds.push_back(encode_gst_checkpoint(wider));
  // Near-valid: each breaks exactly one invariant.
  GstCheckpoint bad = good;
  bad.prefix_w = 0;
  seeds.push_back(encode_gst_checkpoint(bad));
  bad = good;
  bad.bucket_owner.push_back(0);
  seeds.push_back(encode_gst_checkpoint(bad));
  bad = good;
  bad.bucket_owner[1] = 3;
  seeds.push_back(encode_gst_checkpoint(bad));
  bad = good;
  bad.role_done.pop_back();
  seeds.push_back(encode_gst_checkpoint(bad));
  return seeds;
}

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> bytes(data, size);
  auto decoded = pgasm::core::try_decode_gst_checkpoint(bytes);
  if (!decoded) return 0;
  const GstCheckpoint c = std::move(decoded).take_or_throw();

  check(c.prefix_w >= 1 && c.prefix_w <= 12, "prefix_w outside [1, 12]");
  check(c.bucket_owner.size() == (std::size_t{1} << (2 * c.prefix_w)),
        "bucket_owner size != 4^prefix_w");
  for (const std::int32_t o : c.bucket_owner) {
    check(o >= -1 && static_cast<std::int64_t>(o) < c.num_ranks,
          "bucket owner outside [-1, num_ranks)");
  }
  check(c.role_done.size() == c.num_ranks, "role_done size != num_ranks");

  const auto re = pgasm::core::encode_gst_checkpoint(c);
  check(re.size() == size &&
            std::equal(re.begin(), re.end(), bytes.begin()),
        "gst checkpoint decode/encode round-trip is not the identity");
  return 0;
}
