// Fuzz harness: the assembly-result gather payload (core/wire).
//
// try_decode_assemblies must be total over arbitrary bytes: a typed
// WireError or a decoded record list, never a crash and never an
// allocation sized by an unchecked count. The encoding is canonical, so
// every payload the decoder accepts must re-encode to exactly the same
// bytes — the round-trip property that makes rank 0's view of a cluster
// the same as the sending rank's.
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/wire.hpp"
#include "fuzz_driver.hpp"

namespace {

using pgasm::core::ClusterAssembly;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_assemblies property violated: %s\n", what);
    std::abort();
  }
}

std::vector<ClusterAssembly> sample_records() {
  std::vector<ClusterAssembly> records(2);
  records[0].cluster = 3;
  records[0].result.stats = {.overlaps_considered = 40,
                             .overlaps_accepted = 31,
                             .layout_conflicts = 2,
                             .overlaps_aligned = 25};
  pgasm::olc::Contig contig;
  contig.consensus = {0, 1, 2, 3, 3, 2, 1, 0, 4};
  contig.layout.push_back({.fragment = 0, .flip = false, .offset = 0,
                           .length = 6});
  contig.layout.push_back({.fragment = 2, .flip = true, .offset = 3,
                           .length = 6});
  records[0].result.contigs.push_back(contig);
  pgasm::olc::Contig singleton;
  singleton.consensus = {2, 2, 1};
  singleton.layout.push_back({.fragment = 1, .flip = false, .offset = 0,
                              .length = 3});
  records[0].result.contigs.push_back(singleton);
  records[1].cluster = 7;  // an empty assembly
  return records;
}

}  // namespace

std::vector<std::vector<std::uint8_t>> pgasm_fuzz_seeds() {
  std::vector<std::vector<std::uint8_t>> seeds;
  seeds.push_back(pgasm::core::encode_assemblies(sample_records()));
  seeds.push_back(pgasm::core::encode_assemblies({}));
  // Truncations and bit flips of a valid encoding: flips land in counts,
  // lengths, consensus codes and flip bytes.
  const auto valid = seeds.front();
  for (std::size_t cut : {std::size_t{1}, std::size_t{5}, valid.size() / 2,
                          valid.size() - 1}) {
    seeds.emplace_back(valid.begin(),
                       valid.begin() + static_cast<std::ptrdiff_t>(cut));
  }
  for (std::size_t flip : {std::size_t{1}, std::size_t{4}, std::size_t{13},
                           valid.size() / 2, valid.size() - 1}) {
    auto bytes = valid;
    bytes[flip] ^= 0x80;
    seeds.push_back(std::move(bytes));
  }
  return seeds;
}

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> in(data, size);
  auto decoded = pgasm::core::try_decode_assemblies(in);
  if (!decoded) return 0;
  const auto records = std::move(decoded).take_or_throw();
  for (const auto& rec : records) {
    for (const auto& contig : rec.result.contigs) {
      for (const auto c : contig.consensus) {
        check(c <= pgasm::seq::kMask, "decoder accepted a bad base code");
      }
    }
  }
  const auto bytes = pgasm::core::encode_assemblies(records);
  check(bytes.size() == size &&
            std::equal(bytes.begin(), bytes.end(), in.begin()),
        "accepted payload does not re-encode to itself");
  return 0;
}
