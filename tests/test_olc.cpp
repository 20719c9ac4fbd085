// Tests for the layout union-find and the greedy OLC assembler.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "align/overlap.hpp"
#include "align/workspace.hpp"
#include "olc/assembler.hpp"
#include "olc/layout.hpp"
#include "pipeline/comm_team.hpp"
#include "seq/fasta.hpp"
#include "sim/community.hpp"
#include "sim/genome.hpp"
#include "sim/reads.hpp"
#include "test_helpers.hpp"
#include "vmpi/runtime.hpp"

namespace pgasm {
namespace {

using olc::LayoutUF;
using olc::Transform;

TEST(Transform, ComposeAndInverse) {
  const Transform shift{false, 10};
  const Transform flip{true, 5};
  EXPECT_EQ(shift(3), 13);
  EXPECT_EQ(flip(3), 2);
  const Transform c = flip * shift;  // c(x) = flip(shift(x)) = 5 - (x+10)
  EXPECT_EQ(c(3), 5 - 13);
  EXPECT_TRUE(c.flip);
  for (const Transform t : {shift, flip, c}) {
    const Transform inv = t.inverse();
    for (std::int64_t x : {-7, 0, 3, 100}) {
      EXPECT_EQ(inv(t(x)), x);
      EXPECT_EQ(t(inv(x)), x);
    }
  }
}

TEST(Transform, CompositionAssociativity) {
  util::Prng rng(5);
  for (int t = 0; t < 50; ++t) {
    const Transform a{rng.chance(0.5), rng.range(-50, 50)};
    const Transform b{rng.chance(0.5), rng.range(-50, 50)};
    const Transform c{rng.chance(0.5), rng.range(-50, 50)};
    const Transform ab_c = (a * b) * c;
    const Transform a_bc = a * (b * c);
    EXPECT_EQ(ab_c, a_bc);
    for (std::int64_t x : {-3, 0, 9}) EXPECT_EQ(ab_c(x), a(b(c(x))));
  }
}

TEST(LayoutUF, ChainsPlacements) {
  LayoutUF uf(4);
  // 1 sits at +10 in 0's frame; 2 at +10 in 1's frame; 3 flipped at 5 in 2's.
  EXPECT_EQ(uf.unite(0, 1, Transform{false, 10}, 2),
            LayoutUF::UniteOutcome::kMerged);
  EXPECT_EQ(uf.unite(1, 2, Transform{false, 10}, 2),
            LayoutUF::UniteOutcome::kMerged);
  EXPECT_EQ(uf.unite(2, 3, Transform{true, 5}, 2),
            LayoutUF::UniteOutcome::kMerged);
  EXPECT_EQ(uf.num_components(), 1u);
  auto [r0, t0] = uf.find(0);
  auto [r3, t3] = uf.find(3);
  EXPECT_EQ(r0, r3);
  // Position of 3's coordinate x in root frame must equal the composition
  // regardless of which node became root: compare relative placement.
  // 3's frame -> 0's frame: shift10 ∘ shift10 ∘ flip5 = x -> 25 - x.
  const Transform to0 = t0.inverse() * t3;
  EXPECT_TRUE(to0.flip);
  EXPECT_EQ(to0(0), 25);
  EXPECT_EQ(to0(7), 18);
}

TEST(LayoutUF, DetectsConflicts) {
  LayoutUF uf(3);
  EXPECT_EQ(uf.unite(0, 1, Transform{false, 100}, 3),
            LayoutUF::UniteOutcome::kMerged);
  EXPECT_EQ(uf.unite(1, 2, Transform{false, 100}, 3),
            LayoutUF::UniteOutcome::kMerged);
  // Consistent closure edge 0 -> 2 at 200 (within tolerance).
  EXPECT_EQ(uf.unite(0, 2, Transform{false, 198}, 3),
            LayoutUF::UniteOutcome::kConsistent);
  // Contradicting placement.
  EXPECT_EQ(uf.unite(0, 2, Transform{false, 150}, 3),
            LayoutUF::UniteOutcome::kConflict);
  // Orientation contradiction.
  EXPECT_EQ(uf.unite(0, 2, Transform{true, 200}, 3),
            LayoutUF::UniteOutcome::kConflict);
}

TEST(LayoutUF, ComponentsPartition) {
  LayoutUF uf(6);
  uf.unite(0, 1, Transform{false, 5}, 2);
  uf.unite(3, 4, Transform{true, 9}, 2);
  auto comps = uf.components();
  EXPECT_EQ(comps.size(), 4u);
  std::size_t total = 0;
  for (const auto& c : comps) total += c.size();
  EXPECT_EQ(total, 6u);
}

// --- Assembler --------------------------------------------------------------

/// Tile a genome with overlapping error-free reads; assembly must
/// reconstruct it as a single contig whose consensus equals the genome.
TEST(Assembler, PerfectTilingReconstructsGenome) {
  util::Prng rng(11);
  const auto genome = test::random_dna(rng, 800);
  seq::FragmentStore frags;
  for (std::size_t start = 0; start + 200 <= genome.size(); start += 100) {
    frags.add(std::vector<seq::Code>(genome.begin() + start,
                                     genome.begin() + start + 200));
  }
  const auto result = olc::assemble(frags, olc::AssemblyParams{});
  ASSERT_EQ(result.contigs.size(), 1u);
  const auto& contig = result.contigs[0];
  EXPECT_EQ(contig.layout.size(), frags.size());
  ASSERT_EQ(contig.consensus.size(), genome.size());
  EXPECT_EQ(contig.consensus, genome);
}

TEST(Assembler, MixedStrandsReconstruct) {
  util::Prng rng(13);
  const auto genome = test::random_dna(rng, 600);
  seq::FragmentStore frags;
  int idx = 0;
  for (std::size_t start = 0; start + 200 <= genome.size(); start += 80) {
    std::vector<seq::Code> read(genome.begin() + start,
                                genome.begin() + start + 200);
    if (idx++ % 2) read = seq::reverse_complement(read);
    frags.add(read);
  }
  const auto result = olc::assemble(frags, olc::AssemblyParams{});
  ASSERT_EQ(result.contigs.size(), 1u);
  const auto& cons = result.contigs[0].consensus;
  ASSERT_EQ(cons.size(), genome.size());
  // Consensus is the genome or its reverse complement (orientation of the
  // root fragment is arbitrary).
  const bool fwd = cons == genome;
  const bool rev = cons == seq::reverse_complement(genome);
  EXPECT_TRUE(fwd || rev);
}

TEST(Assembler, ConsensusFixesSequencingErrors) {
  util::Prng rng(17);
  const auto genome = test::random_dna(rng, 500);
  seq::FragmentStore frags;
  // 6x coverage of errorful reads: consensus should vote errors away.
  for (int copies = 0; copies < 6; ++copies) {
    for (std::size_t start = 0; start + 150 <= genome.size(); start += 75) {
      std::vector<seq::Code> read(genome.begin() + start,
                                  genome.begin() + start + 150);
      for (auto& c : read) {
        if (rng.chance(0.01)) c = static_cast<seq::Code>((c + 1) % 4);
      }
      frags.add(read);
    }
  }
  olc::AssemblyParams params;
  params.overlap.min_identity = 0.9;
  const auto result = olc::assemble(frags, params);
  ASSERT_GE(result.contigs.size(), 1u);
  // Find the large contig.
  const olc::Contig* big = &result.contigs[0];
  for (const auto& c : result.contigs) {
    if (c.length() > big->length()) big = &c;
  }
  // Reads tile [0, 450) of the 500 bp genome (last start is 300).
  ASSERT_EQ(big->consensus.size(), 450u);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < big->consensus.size(); ++i) {
    mismatches += (big->consensus[i] != genome[i]);
  }
  EXPECT_LT(mismatches, big->consensus.size() / 100);  // <1% consensus error
}

TEST(Assembler, PolishFixesIndels) {
  // Reads with indels: the fixed-offset draft drifts, the polish pass must
  // realign and recover the genome, including columns the backbone read
  // deleted (insertion voting).
  util::Prng rng(37);
  const auto genome = test::random_dna(rng, 600);
  seq::FragmentStore frags;
  for (int copies = 0; copies < 8; ++copies) {
    for (std::size_t start = 0; start + 150 <= genome.size(); start += 75) {
      std::vector<seq::Code> read;
      read.reserve(160);
      for (std::size_t k = start; k < start + 150; ++k) {
        if (rng.chance(0.004)) continue;  // deletion
        if (rng.chance(0.004)) {
          read.push_back(static_cast<seq::Code>(rng.below(4)));  // insertion
        }
        seq::Code c = genome[k];
        if (rng.chance(0.01)) c = static_cast<seq::Code>((c + 1) % 4);
        read.push_back(c);
      }
      frags.add(read);
    }
  }
  olc::AssemblyParams params;
  params.overlap.min_identity = 0.9;
  const auto result = olc::assemble(frags, params);
  const olc::Contig* big = &result.contigs[0];
  for (const auto& c : result.contigs) {
    if (c.length() > big->length()) big = &c;
  }
  // Align the consensus to the genome: near-perfect identity expected.
  align::Workspace ws;
  const auto aln =
      align::overlap_align(big->consensus, genome, align::Scoring{}, ws);
  EXPECT_GT(aln.aln.columns, 500u);
  EXPECT_GT(aln.aln.identity(), 0.995);
}

TEST(Assembler, PolishDisabledKeepsDraft) {
  util::Prng rng(39);
  const auto genome = test::random_dna(rng, 400);
  seq::FragmentStore frags;
  for (std::size_t start = 0; start + 150 <= genome.size(); start += 75) {
    frags.add(std::vector<seq::Code>(genome.begin() + start,
                                     genome.begin() + start + 150));
  }
  olc::AssemblyParams params;
  params.polish_passes = 0;
  const auto result = olc::assemble(frags, params);
  ASSERT_EQ(result.contigs.size(), 1u);
  // Error-free reads: draft is already exact even without polishing.
  EXPECT_EQ(result.contigs[0].consensus,
            std::vector<seq::Code>(genome.begin(), genome.begin() + 375));
}

TEST(Assembler, DisjointIslandsYieldSeparateContigs) {
  util::Prng rng(19);
  const auto g1 = test::random_dna(rng, 400);
  const auto g2 = test::random_dna(rng, 400);
  seq::FragmentStore frags;
  for (const auto& g : {g1, g2}) {
    for (std::size_t start = 0; start + 150 <= g.size(); start += 70) {
      frags.add(std::vector<seq::Code>(g.begin() + start,
                                       g.begin() + start + 150));
    }
  }
  const auto result = olc::assemble(frags, olc::AssemblyParams{});
  EXPECT_EQ(result.num_multi_contigs(), 2u);
}

TEST(Assembler, SingletonsReported) {
  util::Prng rng(23);
  seq::FragmentStore frags;
  frags.add(test::random_dna(rng, 300));
  frags.add(test::random_dna(rng, 300));  // no overlap between them
  const auto result = olc::assemble(frags, olc::AssemblyParams{});
  EXPECT_EQ(result.contigs.size(), 2u);
  EXPECT_EQ(result.num_singletons(), 2u);
  EXPECT_EQ(result.num_multi_contigs(), 0u);
}

TEST(Assembler, EmptyInput) {
  seq::FragmentStore frags;
  const auto result = olc::assemble(frags, olc::AssemblyParams{});
  EXPECT_TRUE(result.contigs.empty());
  EXPECT_EQ(result.n50(), 0u);
}

TEST(Assembler, N50Sane) {
  util::Prng rng(29);
  const auto genome = test::random_dna(rng, 1000);
  seq::FragmentStore frags;
  for (std::size_t start = 0; start + 200 <= genome.size(); start += 90) {
    frags.add(std::vector<seq::Code>(genome.begin() + start,
                                     genome.begin() + start + 200));
  }
  const auto result = olc::assemble(frags, olc::AssemblyParams{});
  EXPECT_GE(result.n50(), 900u);
}

// --- Golden pins --------------------------------------------------------------
//
// Output of the assembler on two fixed-seed inputs, recorded before the
// pair memo and the split-cluster path existed. Every way of running the
// assembler must reproduce them exactly: this pins identity with the
// original serial assembler, not just self-consistency.

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Pin {
  std::uint64_t fasta = 0;   ///< FNV-1a of every contig as FASTA, in order
  std::uint64_t layout = 0;  ///< FNV-1a of every placement, in order
  std::uint64_t contigs = 0;
  std::uint64_t considered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t conflicts = 0;

  static Pin of(const olc::AssemblyResult& r) {
    seq::FragmentStore contigs;
    std::string placements;
    for (const auto& c : r.contigs) {
      contigs.add(c.consensus, seq::FragType::kUnknown,
                  "contig" + std::to_string(contigs.size()));
      for (const auto& p : c.layout) {
        placements += std::to_string(p.fragment) + (p.flip ? "-" : "+") +
                      std::to_string(p.offset) + "/" +
                      std::to_string(p.length) + ";";
      }
    }
    std::ostringstream fasta;
    seq::write_fasta(fasta, contigs);
    return Pin{fnv1a(fasta.str()),         fnv1a(placements),
               r.contigs.size(),           r.stats.overlaps_considered,
               r.stats.overlaps_accepted, r.stats.layout_conflicts};
  }
  bool operator==(const Pin&) const = default;
};

void PrintTo(const Pin& p, std::ostream* os) {
  *os << std::hex << "{fasta 0x" << p.fasta << ", layout 0x" << p.layout
      << std::dec << ", contigs " << p.contigs << ", considered "
      << p.considered << ", accepted " << p.accepted << ", conflicts "
      << p.conflicts << "}";
}

sim::ReadParams pin_read_params(std::uint32_t len_mean) {
  sim::ReadParams rp;
  rp.len_mean = len_mean;
  rp.len_spread = len_mean / 5;
  rp.vector_contam_prob = 0;
  return rp;
}

/// One 8X WGS cluster of 321 fragments: repeat emissions of the same
/// (pair, shift) are common, so the pair memo fires.
seq::FragmentStore wgs_pin_cluster() {
  const auto genome = sim::simulate_genome(sim::shotgun_like(12'000, 3));
  util::Prng rng(4);
  sim::ReadSet rs;
  sim::sample_wgs(rs, genome, 8.0, pin_read_params(300), rng);
  return std::move(rs.store);
}

/// A low-coverage four-species community, one cluster per species: several
/// clusters assemble to more than one multi-fragment contig, so polish runs
/// over several contigs at once.
std::vector<seq::FragmentStore> env_pin_clusters() {
  sim::CommunityParams cp;
  cp.num_species = 4;
  cp.genome_len_min = 4'000;
  cp.genome_len_max = 9'000;
  cp.seed = 5;
  const auto community = sim::simulate_community(cp);
  util::Prng rng(6);
  sim::ReadSet rs;
  sim::sample_community(rs, community, 120, pin_read_params(450), rng);
  std::vector<seq::FragmentStore> clusters(cp.num_species);
  for (seq::FragmentId i = 0; i < rs.store.size(); ++i) {
    clusters[rs.truth[i].genome_id].add(rs.store.seq(i), rs.store.type(i), {},
                                        rs.store.quality(i));
  }
  return clusters;
}

const Pin kWgsPin{0xaaf130078778c01bull, 0x580440455cb37ec6ull, 3, 6626, 5625,
                  0};
const Pin kEnvPins[] = {
    {0x9251ae0550c8fb51ull, 0xb45ebb40e8022b2cull, 2, 923, 686, 0},
    {0xfc2ee4fb2aa04084ull, 0x55abcd85cf8e96d3ull, 7, 289, 195, 0},
    {0xbdb30b5aaf24985dull, 0x5d00f0265ac9aea7ull, 3, 197, 102, 0},
    {0xce6d0e7d0fef2c76ull, 0xde0b033a28a997ffull, 10, 107, 60, 0},
};

TEST(GoldenPin, WgsClusterSerial) {
  const auto frags = wgs_pin_cluster();
  ASSERT_EQ(frags.size(), 321u);
  const auto result = olc::assemble(frags, olc::AssemblyParams{});
  EXPECT_EQ(Pin::of(result), kWgsPin);
  // The memo fires: some emissions repeat an earlier (pair, shift) key.
  EXPECT_LT(result.stats.overlaps_aligned, result.stats.overlaps_considered);
}

TEST(GoldenPin, EnvClustersSerial) {
  const auto clusters = env_pin_clusters();
  ASSERT_EQ(clusters.size(), std::size(kEnvPins));
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    SCOPED_TRACE("cluster " + std::to_string(i));
    EXPECT_EQ(Pin::of(olc::assemble(clusters[i], olc::AssemblyParams{})),
              kEnvPins[i]);
  }
}

/// Assemble `frags` as a team of `size` ranks over `transport`, owned by
/// the last rank. Every member must end with the same result.
Pin team_pin(const seq::FragmentStore& frags, int size,
             const std::string& transport) {
  constexpr std::uint32_t kPinKey = 1;
  const int owner = size - 1;
  const olc::AssemblyParams params;
  vmpi::Runtime rt(size, transport);
  const auto cost = rt.run([&](vmpi::Comm& comm) {
    pipeline::CommTeam team(comm);
    olc::PairPlan plan;
    if (comm.rank() == owner) plan = olc::plan_pairs(frags, params);
    const auto result =
        olc::assemble(frags, params, team, owner, std::move(plan));
    comm.stash_value(kPinKey, Pin::of(result));
  });
  const auto first = cost.stash_value<Pin>(0, kPinKey);
  EXPECT_TRUE(first.has_value());
  for (int r = 1; r < size; ++r) {
    EXPECT_EQ(cost.stash_value<Pin>(r, kPinKey), first) << "rank " << r;
  }
  return first.value_or(Pin{});
}

#ifdef PGASM_NO_FORK
constexpr bool kCanFork = false;
#else
constexpr bool kCanFork = true;
#endif

/// Team sizes 1-4: 3 gives an uneven key and placement partition.
void expect_team_pins(const std::string& transport) {
  if (transport == "proc" && !kCanFork) GTEST_SKIP() << "no fork under TSan";
  const auto wgs = wgs_pin_cluster();
  const auto env = env_pin_clusters();
  for (int size = 1; size <= 4; ++size) {
    SCOPED_TRACE("team size " + std::to_string(size));
    EXPECT_EQ(team_pin(wgs, size, transport), kWgsPin);
    for (std::size_t i = 0; i < env.size(); ++i) {
      SCOPED_TRACE("env cluster " + std::to_string(i));
      EXPECT_EQ(team_pin(env[i], size, transport), kEnvPins[i]);
    }
  }
}

TEST(GoldenPin, TeamsReproduceOverThreads) { expect_team_pins("thread"); }

TEST(GoldenPin, TeamsReproduceOverProcesses) { expect_team_pins("proc"); }


}  // namespace
}  // namespace pgasm
