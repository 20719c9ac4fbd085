// Fuzz harness: the proc transport's per-rank exit blob ("PGVB").
//
// decode_exit_blob must be total over arbitrary bytes: nullopt or a decoded
// blob, never a crash, a throw, or an allocation sized by an unchecked
// count. Every blob the decoder accepts must re-encode to exactly the same
// bytes, so what the parent merges is what the child wrote.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz_driver.hpp"
#include "vmpi/proc_transport.hpp"

namespace {

using pgasm::vmpi::ExitBlob;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_exit_blob property violated: %s\n", what);
    std::abort();
  }
}

ExitBlob sample_blob() {
  ExitBlob blob;
  blob.rank = 3;
  blob.kind = pgasm::vmpi::ExitKind::kTimeout;
  blob.error = "timed out";
  blob.epoch_ns = 1000;
  blob.ledger.msgs_sent = 4;
  blob.ledger.comm_seconds = 0.5;
  blob.stash[2] = {std::byte{9}, std::byte{8}};
  blob.traced = true;
  blob.strings = {"recv", "vmpi", "cluster"};
  ExitBlob::Event ev;
  ev.name = 0;
  ev.cat = 1;
  ev.dur_us = 12;
  ev.arg_name[1] = 2;
  ev.arg[1] = 5;
  ev.phase = 2;
  blob.rings.push_back({.rank = 3, .dropped = 0, .events = {ev}});
  pgasm::obs::MetricSample gauge;
  gauge.key = {.name = "align.workspace_bytes", .rank = 3, .phase = ""};
  gauge.kind = pgasm::obs::MetricSample::Kind::kGauge;
  gauge.gauge_value = 2048;
  pgasm::obs::MetricSample hist;
  hist.key = {.name = "comm.wait_us", .rank = 3, .phase = "cluster"};
  hist.kind = pgasm::obs::MetricSample::Kind::kHistogram;
  hist.buckets = {{0, 2}, {64, 1}};
  hist.hist_sum = 70;
  blob.metrics = {gauge, hist};
  return blob;
}

std::vector<std::uint8_t> to_bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

}  // namespace

std::vector<std::vector<std::uint8_t>> pgasm_fuzz_seeds() {
  std::vector<std::vector<std::uint8_t>> seeds;
  const std::string valid = pgasm::vmpi::encode_exit_blob(sample_blob());
  seeds.push_back(to_bytes(valid));
  ExitBlob untraced;
  untraced.rank = 1;
  seeds.push_back(to_bytes(pgasm::vmpi::encode_exit_blob(untraced)));
  // Truncations and bit flips of a valid blob: flips land in counts,
  // lengths, string indices and record kinds.
  for (std::size_t cut : {std::size_t{3}, std::size_t{13}, valid.size() / 2,
                          valid.size() - 1}) {
    seeds.push_back(to_bytes(valid.substr(0, cut)));
  }
  for (std::size_t flip : {std::size_t{12}, std::size_t{17}, valid.size() / 3,
                           valid.size() / 2, valid.size() - 9}) {
    std::string bytes = valid;
    bytes[flip] = static_cast<char>(bytes[flip] ^ 0x80);
    seeds.push_back(to_bytes(bytes));
  }
  return seeds;
}

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view in(reinterpret_cast<const char*>(data), size);
  const auto blob = pgasm::vmpi::decode_exit_blob(in);
  if (!blob) return 0;
  check(pgasm::vmpi::encode_exit_blob(*blob) == in,
        "accepted blob does not re-encode to itself");
  return 0;
}
