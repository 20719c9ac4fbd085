// Tests for the overlap alignment kernels: scores against exponential
// end-free and global brute forces on tiny inputs, traceback consistency,
// the narrow band against the full matrix, masked symbols, overlap
// classification, and the clustering accept test.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "align/overlap.hpp"
#include "align/pairwise.hpp"
#include "align/workspace.hpp"
#include "test_helpers.hpp"

namespace pgasm {
namespace {

using align::AlignOptions;
using align::AlignResult;
using align::OverlapParams;
using align::OverlapType;
using align::Scoring;
using align::Workspace;
using Seq = align::Seq;

std::vector<seq::Code> enc(const std::string& s) { return seq::encode(s); }

/// Exponential-time reference for end-free alignment: the best score of a
/// path from (i, j) that may stop on the last row or column (free trailing
/// gaps).
int brute_from(Seq a, Seq b, const Scoring& sc, std::size_t i,
               std::size_t j) {
  const bool at_end = i == a.size() || j == b.size();
  int best = at_end ? 0 : std::numeric_limits<int>::min() / 4;
  if (i < a.size() && j < b.size()) {
    best = std::max(best, sc.substitution(a[i], b[j]) +
                              brute_from(a, b, sc, i + 1, j + 1));
  }
  if (i < a.size()) {
    best = std::max(best, sc.gap + brute_from(a, b, sc, i + 1, j));
  }
  if (j < b.size()) {
    best = std::max(best, sc.gap + brute_from(a, b, sc, i, j + 1));
  }
  return best;
}

/// Best end-free score: a path may start anywhere on the first row or
/// column (free leading gaps).
int brute_overlap(Seq a, Seq b, const Scoring& sc) {
  int best = std::numeric_limits<int>::min();
  for (std::size_t i = 0; i <= a.size(); ++i)
    best = std::max(best, brute_from(a, b, sc, i, 0));
  for (std::size_t j = 1; j <= b.size(); ++j)
    best = std::max(best, brute_from(a, b, sc, 0, j));
  return best;
}

/// Exponential-time reference: best global alignment score, linear gaps.
int brute_global(Seq a, Seq b, const Scoring& sc, std::size_t i = 0,
                 std::size_t j = 0) {
  if (i == a.size()) return static_cast<int>(b.size() - j) * sc.gap;
  if (j == b.size()) return static_cast<int>(a.size() - i) * sc.gap;
  const int diag =
      sc.substitution(a[i], b[j]) + brute_global(a, b, sc, i + 1, j + 1);
  const int up = sc.gap + brute_global(a, b, sc, i + 1, j);
  const int left = sc.gap + brute_global(a, b, sc, i, j + 1);
  return std::max({diag, up, left});
}

/// head + s + tail.
std::vector<seq::Code> flank(Seq head, Seq s, Seq tail) {
  std::vector<seq::Code> out(head.begin(), head.end());
  out.insert(out.end(), s.begin(), s.end());
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

/// Op string tallies must agree with the result's spans and match count.
void expect_ops_consistent(const AlignResult& r) {
  EXPECT_EQ(r.ops.size(), r.columns);
  std::uint32_t ca = 0, cb = 0, matches = 0;
  for (auto op : r.ops) {
    switch (op) {
      case align::Op::kMatch:
        ++matches;
        [[fallthrough]];
      case align::Op::kMismatch:
        ++ca;
        ++cb;
        break;
      case align::Op::kInsertA:
        ++ca;
        break;
      case align::Op::kInsertB:
        ++cb;
        break;
    }
  }
  EXPECT_EQ(ca, r.a_span());
  EXPECT_EQ(cb, r.b_span());
  EXPECT_EQ(matches, r.matches);
}

class AlignRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AlignRandom, OverlapMatchesBruteForce) {
  util::Prng rng(GetParam());
  const Scoring sc;
  Workspace ws;
  const auto a = test::random_dna(rng, 2 + rng.below(6));
  const auto b = test::random_dna(rng, 2 + rng.below(6));
  const int want = brute_overlap(a, b, sc);
  EXPECT_EQ(align::overlap_align(a, b, sc, ws).aln.score, want);
  const auto band = static_cast<std::uint32_t>(a.size() + b.size());
  EXPECT_EQ(align::banded_overlap_align(a, b, sc, 0, band, ws).aln.score,
            want);
}

TEST_P(AlignRandom, GlobalMatchesBruteForce) {
  // Interior cells follow the global recurrence. Pin both ends with shared
  // random flanks: every optimal end-free path then runs from the first
  // cell to the last, so the score is global(a, b) plus the flank matches.
  util::Prng rng(GetParam());
  const Scoring sc;
  Workspace ws;
  const auto a = test::random_dna(rng, 3 + rng.below(6));
  const auto b = test::random_dna(rng, 3 + rng.below(6));
  const auto head = test::random_dna(rng, 32);
  const auto tail = test::random_dna(rng, 32);
  const auto pa = flank(head, a, tail);
  const auto pb = flank(head, b, tail);
  const int want = brute_global(a, b, sc) +
                   static_cast<int>(head.size() + tail.size()) * sc.match;
  const auto band = static_cast<std::uint32_t>(a.size() + b.size());
  for (const auto& r : {align::overlap_align(pa, pb, sc, ws).aln,
                        align::banded_overlap_align(pa, pb, sc, 0, band, ws)
                            .aln}) {
    EXPECT_EQ(r.score, want);
    EXPECT_EQ(r.a_begin, 0u);
    EXPECT_EQ(r.b_begin, 0u);
    EXPECT_EQ(r.a_end, pa.size());
    EXPECT_EQ(r.b_end, pb.size());
  }
}

TEST_P(AlignRandom, BandedEqualsUnbandedWithCoveringBand) {
  util::Prng rng(GetParam() + 100);
  const Scoring sc;
  Workspace ws;
  const auto a = test::random_dna(rng, 10 + rng.below(40));
  const auto b = test::random_dna(rng, 10 + rng.below(40));
  const auto full = align::overlap_align(a, b, sc, ws);
  const auto band = align::banded_overlap_align(
      a, b, sc, 0, static_cast<std::uint32_t>(a.size() + b.size()), ws);
  EXPECT_EQ(band.aln.score, full.aln.score);
  EXPECT_EQ(band.type, full.type);
}

TEST_P(AlignRandom, TracebackCountsConsistent) {
  util::Prng rng(GetParam() + 200);
  const Scoring sc;
  Workspace ws;
  const auto a = test::random_dna(rng, 20 + rng.below(30));
  auto b = test::random_dna(rng, 20 + rng.below(30));
  // Plant a shared stretch so the alignment has a real overlap to trace.
  const std::size_t ov = std::min(a.size(), b.size()) / 2;
  std::copy(a.end() - static_cast<std::ptrdiff_t>(ov), a.end(), b.begin());
  const AlignOptions opts{.keep_ops = true};
  expect_ops_consistent(align::overlap_align(a, b, sc, ws, opts).aln);
  const auto shift = -static_cast<std::int32_t>(a.size() - ov);
  expect_ops_consistent(
      align::banded_overlap_align(a, b, sc, shift, 6, ws, opts).aln);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlignRandom,
                         ::testing::Range<std::uint64_t>(1, 17));

// The banded kernel is the pipeline's linear-space aligner: its workspace
// holds (|a|+1)(2 band+1) cells where the full matrix needs (|a|+1)(|b|+1).
// On a seeded overlap between substitution-mutated reads a narrow band must
// still find the full-matrix optimum, and its traceback must consume exactly
// the spans it reports.
class LinearSpaceRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinearSpaceRandom, HirschbergMatchesFullMatrixScore) {
  util::Prng rng(GetParam());
  const Scoring sc;
  const std::uint32_t band = 12;
  const auto genome = test::random_dna(rng, 300 + rng.below(300));
  const std::size_t off = 20 + rng.below(100);
  const std::size_t la = off + 120 + rng.below(genome.size() - off - 120);
  const auto first = genome.begin();
  std::vector<seq::Code> a(first, first + static_cast<std::ptrdiff_t>(la));
  std::vector<seq::Code> b(first + static_cast<std::ptrdiff_t>(off),
                           genome.end());
  for (auto* s : {&a, &b}) {
    for (auto& c : *s) {
      if (rng.chance(0.03)) c = static_cast<seq::Code>((c + 1) % 4);
    }
  }
  const AlignOptions opts{.keep_ops = true};
  Workspace full_ws, band_ws;
  const auto full = align::overlap_align(a, b, sc, full_ws, opts);
  const auto banded = align::banded_overlap_align(
      a, b, sc, -static_cast<std::int32_t>(off), band, band_ws, opts);
  EXPECT_EQ(banded.aln.score, full.aln.score) << "seed " << GetParam();
  EXPECT_EQ(banded.type, full.type);
  expect_ops_consistent(banded.aln);
  const std::size_t cell = sizeof(int) + sizeof(std::uint8_t);
  EXPECT_EQ(band_ws.bytes_in_use(), (a.size() + 1) * (2 * band + 1) * cell);
  EXPECT_EQ(full_ws.bytes_in_use(), (a.size() + 1) * (b.size() + 1) * cell);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearSpaceRandom,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(Align, GlobalIdentical) {
  const auto a = enc("ACGTACGT");
  const Scoring sc;
  Workspace ws;
  for (const auto& r : {align::overlap_align(a, a, sc, ws).aln,
                        align::banded_overlap_align(a, a, sc, 0, 3, ws).aln}) {
    EXPECT_EQ(r.score, 8 * sc.match);
    EXPECT_EQ(r.matches, 8u);
    EXPECT_EQ(r.a_span(), 8u);
    EXPECT_EQ(r.b_span(), 8u);
    EXPECT_DOUBLE_EQ(r.identity(), 1.0);
  }
}

TEST(Align, MaskedNeverMatches) {
  const auto a = enc("ACNNGT");
  Workspace ws;
  // The two N positions are mismatches even against themselves.
  const auto full = align::overlap_align(a, a, Scoring{}, ws);
  EXPECT_EQ(full.aln.matches, 4u);
  EXPECT_EQ(full.aln.columns, 6u);
  const auto banded = align::banded_overlap_align(a, a, Scoring{}, 0, 3, ws);
  EXPECT_EQ(banded.aln.matches, 4u);
  EXPECT_EQ(banded.aln.columns, 6u);
}

// --- Overlap (suffix-prefix) alignment -------------------------------------

TEST(Overlap, PerfectDovetail) {
  Workspace ws;
  // a suffix == b prefix, 10 chars.
  const auto a = enc("TTTTTTACGTACGTAC");
  const auto b = enc("ACGTACGTACGGGGGG");
  const auto r = align::overlap_align(a, b, Scoring{}, ws);
  EXPECT_EQ(r.type, OverlapType::kDovetailAB);
  EXPECT_GE(r.aln.matches, 10u);
  EXPECT_EQ(r.aln.a_end, a.size());
  EXPECT_EQ(r.aln.b_begin, 0u);
}

TEST(Overlap, DovetailOtherOrder) {
  Workspace ws;
  const auto a = enc("ACGTACGTACGGGGGG");
  const auto b = enc("TTTTTTACGTACGTAC");
  const auto r = align::overlap_align(a, b, Scoring{}, ws);
  EXPECT_EQ(r.type, OverlapType::kDovetailBA);
}

TEST(Overlap, Containment) {
  Workspace ws;
  const auto a = enc("TTTTTACGTACGTACGTTTTTT");
  const auto b = enc("ACGTACGTACGT");
  const auto r = align::overlap_align(a, b, Scoring{}, ws);
  EXPECT_EQ(r.type, OverlapType::kContainsB);
  const auto r2 = align::overlap_align(b, a, Scoring{}, ws);
  EXPECT_EQ(r2.type, OverlapType::kContainedInB);
}

TEST(Overlap, ToleratesErrors) {
  Workspace ws;
  util::Prng rng(77);
  auto a = test::random_dna(rng, 120);
  // b = last 60 of a + 60 fresh, with 3 substitutions in the overlap.
  std::vector<seq::Code> b(a.begin() + 60, a.end());
  auto fresh = test::random_dna(rng, 60);
  b.insert(b.end(), fresh.begin(), fresh.end());
  for (std::uint32_t posn : {5u, 25u, 45u}) {
    b[posn] = static_cast<seq::Code>((b[posn] + 1) % 4);
  }
  const auto r = align::overlap_align(a, b, Scoring{}, ws);
  EXPECT_EQ(r.type, OverlapType::kDovetailAB);
  EXPECT_GE(r.aln.identity(), 0.9);
  EXPECT_GE(r.overlap_len(), 55u);
}

TEST(Overlap, BandedAgreesWithFullOnSeededPairs) {
  Workspace ws;
  util::Prng rng(31);
  for (int t = 0; t < 12; ++t) {
    auto a = test::random_dna(rng, 100);
    // b shares a's suffix starting at 40: seed anchor at (40, 0).
    std::vector<seq::Code> b(a.begin() + 40, a.end());
    auto fresh = test::random_dna(rng, 50);
    b.insert(b.end(), fresh.begin(), fresh.end());
    // A couple of random errors inside the overlap.
    for (int e = 0; e < 2; ++e) {
      const auto posn = rng.below(55);
      b[posn] = static_cast<seq::Code>((b[posn] + 1 + rng.below(3)) % 4);
    }
    const auto full = align::overlap_align(a, b, Scoring{}, ws);
    const auto banded =
        align::banded_overlap_align(a, b, Scoring{}, /*shift=*/-40,
                                    /*band=*/8, ws);
    EXPECT_EQ(banded.type, full.type);
    EXPECT_NEAR(banded.aln.score, full.aln.score, 0);
  }
}

TEST(Overlap, BandedMissesWhenBandExcludesEnds) {
  Workspace ws;
  const auto a = enc("AAAAAAAAAACGCGCGCG");
  const auto b = enc("TTTTTTTTTTTTTTTTTT");
  const auto r = align::banded_overlap_align(a, b, Scoring{}, 100, 2, ws);
  EXPECT_EQ(r.type, OverlapType::kNone);
}

TEST(Overlap, AcceptTestEnforcesCutoffs) {
  OverlapParams p;
  p.min_overlap = 40;
  p.min_identity = 0.94;

  util::Prng rng(8);
  auto a = test::random_dna(rng, 100);
  std::vector<seq::Code> b(a.begin() + 50, a.end());
  auto fresh = test::random_dna(rng, 50);
  b.insert(b.end(), fresh.begin(), fresh.end());

  Workspace ws;
  auto test = [&](Seq x, Seq y, std::int32_t shift) {
    return align::banded_overlap_align(x, y, p.scoring, shift, p.band, ws);
  };
  auto good = test(a, b, -50);
  EXPECT_TRUE(align::accept_overlap(good, p));

  // Too-short overlap: only 20 shared chars.
  std::vector<seq::Code> c(a.begin() + 80, a.end());
  c.insert(c.end(), fresh.begin(), fresh.end());
  auto shortr = test(a, c, -80);
  EXPECT_FALSE(align::accept_overlap(shortr, p));

  // Low identity: corrupt 20% of the overlap.
  auto noisy = b;
  for (std::uint32_t i = 0; i < 50; i += 5)
    noisy[i] = static_cast<seq::Code>((noisy[i] + 2) % 4);
  auto bad = test(a, noisy, -50);
  EXPECT_FALSE(align::accept_overlap(bad, p));
}

TEST(Overlap, RcSymmetry) {
  Workspace ws;
  // overlap(a, b) as dovetail A->B should mirror overlap(rc(b), rc(a)).
  util::Prng rng(21);
  auto a = test::random_dna(rng, 80);
  std::vector<seq::Code> b(a.begin() + 30, a.end());
  auto fresh = test::random_dna(rng, 30);
  b.insert(b.end(), fresh.begin(), fresh.end());
  const auto fwd = align::overlap_align(a, b, Scoring{}, ws);
  const auto ra = seq::reverse_complement(a);
  const auto rb = seq::reverse_complement(b);
  const auto rev = align::overlap_align(rb, ra, Scoring{}, ws);
  EXPECT_EQ(fwd.aln.score, rev.aln.score);
  EXPECT_EQ(fwd.type, OverlapType::kDovetailAB);
  EXPECT_EQ(rev.type, OverlapType::kDovetailAB);
}

}  // namespace
}  // namespace pgasm
