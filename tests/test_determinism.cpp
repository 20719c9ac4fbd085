// The dynamic half of the determinism gate (DESIGN.md §16): the assembled
// contigs — sequence AND order — must be byte-identical whatever the rank
// count and whatever the transport, and identical run to run. The static
// half (tools/determ/pgasm-determcheck) proves no nondeterminism source
// reaches an output-affecting sink; this suite is the end-to-end witness
// that the proof obligation is the right one.
//
// Uses the proc transport (forks real rank processes), so it is excluded
// from TSan builds like test_transport_proc.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "seq/fasta.hpp"
#include "sim/genome.hpp"
#include "sim/reads.hpp"
#include "util/prng.hpp"

namespace pgasm {
namespace {

constexpr std::uint64_t kSeed = 7;

seq::FragmentStore simulated_reads() {
  const auto genome = sim::simulate_genome(sim::shotgun_like(30'000, kSeed));
  util::Prng rng(kSeed + 1);
  sim::ReadSet rs;
  sim::ReadParams rp;
  rp.len_mean = 500;
  rp.len_spread = 100;
  sim::sample_wgs(rs, genome, 6.0, rp, rng);
  return std::move(rs.store);
}

struct RunOutput {
  std::string fasta;                           // canonical contig rendering
  std::uint64_t spectrum_fingerprint = 0;      // preprocess repeat spectrum
  std::size_t num_contigs = 0;
  std::size_t clusters_split = 0;  // clusters assembled by all ranks together
};

// Run the pipeline at `ranks` over `transport` and render the contigs the
// way quickstart does: non-singletons only, in assembly order, headers
// contig0..contigN. Any divergence in content OR order shows up as a byte
// difference in the FASTA string.
RunOutput run_once(const seq::FragmentStore& reads, int ranks,
                   const std::string& transport) {
  pipeline::PipelineParams params;
  params.ranks = ranks;
  params.cluster.transport = transport;
  params.cluster.psi = 20;
  params.cluster.overlap.min_overlap = 40;
  params.cluster.overlap.min_identity = 0.93;
  const auto result = pipeline::run_pipeline(reads, sim::vector_library(),
                                             params);

  RunOutput out;
  out.spectrum_fingerprint = result.pre.stats.repeat_spectrum_fingerprint;
  out.clusters_split = result.assembly_summary.clusters_split;
  seq::FragmentStore contigs;
  std::size_t idx = 0;
  for (const auto& assembly : result.assemblies) {
    for (const auto& contig : assembly.contigs) {
      if (contig.is_singleton()) continue;
      contigs.add(contig.consensus, seq::FragType::kUnknown,
                  "contig" + std::to_string(idx++));
    }
  }
  out.num_contigs = contigs.size();
  std::ostringstream os;
  seq::write_fasta(os, contigs);
  out.fasta = os.str();
  return out;
}

TEST(Determinism, ContigsBitIdenticalAcrossRanksAndTransports) {
  const auto reads = simulated_reads();

  // Serial clustering is the reference everything else must match.
  const RunOutput reference = run_once(reads, 0, "");
  ASSERT_GT(reference.num_contigs, 0u);
  ASSERT_NE(reference.spectrum_fingerprint, 0u);

  const std::vector<std::pair<int, std::string>> configs = {
      {2, "thread"}, {4, "thread"}, {2, "proc"}, {4, "proc"}};
  for (const auto& [ranks, transport] : configs) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks) + " transport=" +
                 transport);
    const RunOutput got = run_once(reads, ranks, transport);
    EXPECT_EQ(got.num_contigs, reference.num_contigs);
    // Byte equality covers both contig sequences and contig order.
    EXPECT_EQ(got.fasta, reference.fasta);
    EXPECT_EQ(got.spectrum_fingerprint, reference.spectrum_fingerprint);
  }
}

// Three ranks split the largest cluster's keys and placements unevenly
// (DESIGN.md §17); the contigs must still match the serial run byte for
// byte.
TEST(Determinism, SplitClusterOnThreeRanksMatchesSerial) {
  const auto reads = simulated_reads();
  const RunOutput reference = run_once(reads, 0, "");
  ASSERT_EQ(reference.clusters_split, 0u);
  for (const std::string transport : {"thread", "proc"}) {
    SCOPED_TRACE("transport=" + transport);
    const RunOutput got = run_once(reads, 3, transport);
    EXPECT_GE(got.clusters_split, 1u);
    EXPECT_EQ(got.fasta, reference.fasta);
  }
}

TEST(Determinism, RepeatedRunsAreBitIdentical) {
  const auto reads = simulated_reads();
  const RunOutput first = run_once(reads, 2, "thread");
  const RunOutput second = run_once(reads, 2, "thread");
  EXPECT_EQ(first.fasta, second.fasta);
  EXPECT_EQ(first.spectrum_fingerprint, second.spectrum_fingerprint);
}

}  // namespace
}  // namespace pgasm
