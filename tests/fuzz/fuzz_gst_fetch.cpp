// Fuzz harness: the GST fragment-fetch reply (gst/parallel_build).
//
// Input layout: [u8 k][k request ids, one byte each][reply payload]. The
// request list is what the receiving rank asked the owner for in one
// round; try_decode_fetch_reply must check the payload against it.
// Properties enforced (abort on violation):
//   1. Totality: arbitrary bytes decode to the requested texts or to a
//      typed WireError, never a crash, a throw or an unchecked allocation.
//   2. Canonical round-trip: when a decode succeeds (and the request list
//      names each id once, as a real round does), the owner's encoder
//      reproduces the payload exactly from the decoded texts.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "fuzz_driver.hpp"
#include "gst/parallel_build.hpp"

namespace {

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_gst_fetch property violated: %s\n", what);
    std::abort();
  }
}

std::vector<std::uint8_t> seed(const std::vector<std::uint32_t>& requested,
                               const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> s{static_cast<std::uint8_t>(requested.size())};
  for (const std::uint32_t id : requested) {
    s.push_back(static_cast<std::uint8_t>(id));
  }
  s.insert(s.end(), payload.begin(), payload.end());
  return s;
}

}  // namespace

std::vector<std::vector<std::uint8_t>> pgasm_fuzz_seeds() {
  pgasm::seq::FragmentStore store;
  store.add_ascii("ACGTACGTAC");
  store.add_ascii("");
  store.add_ascii("GGNNTTA");
  store.add_ascii("CATTAG");
  const std::vector<std::uint32_t> requested{3, 0, 2, 1};
  const auto valid = pgasm::gst::encode_fetch_reply(
      store, 0, static_cast<std::uint32_t>(store.size()), requested);

  std::vector<std::vector<std::uint8_t>> seeds;
  seeds.push_back(seed(requested, valid));
  seeds.push_back(seed({}, {}));
  // Truncations, a reordered request list and bit flips: flips land in
  // ids, counts and codes.
  for (const std::size_t cut : {std::size_t{3}, std::size_t{9},
                                valid.size() / 2, valid.size() - 1}) {
    seeds.push_back(seed(requested, {valid.begin(),
                                     valid.begin() +
                                         static_cast<std::ptrdiff_t>(cut)}));
  }
  seeds.push_back(seed({0, 3, 2, 1}, valid));
  for (const std::size_t flip : {std::size_t{0}, std::size_t{4},
                                 std::size_t{9}, valid.size() - 1}) {
    auto bytes = valid;
    bytes[flip] ^= 0x04;
    seeds.push_back(seed(requested, bytes));
  }
  return seeds;
}

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::size_t k = std::min<std::size_t>(data[0] % 9, size - 1);
  const std::vector<std::uint32_t> requested(data + 1, data + 1 + k);
  const std::span<const std::uint8_t> payload(data + 1 + k, size - 1 - k);

  auto decoded = pgasm::gst::try_decode_fetch_reply(payload, requested);
  if (!decoded) return 0;
  const auto texts = std::move(decoded).take_or_throw();
  check(texts.size() == requested.size(),
        "accepted reply does not answer every request");

  auto sorted = requested;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return 0;  // a real round never requests an id twice
  }
  // Rebuild the owner's store from the decoded texts and serve the same
  // request list again.
  pgasm::seq::FragmentStore store;
  const std::uint32_t n = sorted.empty() ? 0 : sorted.back() + 1;
  for (std::uint32_t g = 0; g < n; ++g) {
    const auto at = std::find(requested.begin(), requested.end(), g);
    if (at == requested.end()) {
      store.add({});
    } else {
      store.add(texts[static_cast<std::size_t>(at - requested.begin())]);
    }
  }
  const auto re = pgasm::gst::encode_fetch_reply(store, 0, n, requested);
  check(re.size() == payload.size() &&
            std::equal(re.begin(), re.end(), payload.begin()),
        "fetch reply decode/encode round-trip is not the identity");
  return 0;
}
