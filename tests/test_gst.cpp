// Tests for the generalized suffix tree and promising-pair generation.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "gst/lookup_filter.hpp"
#include "gst/pair_generator.hpp"
#include "gst/suffix_tree.hpp"
#include "sim/genome.hpp"
#include "sim/reads.hpp"
#include "test_helpers.hpp"

namespace pgasm {
namespace {

using gst::GstParams;
using gst::PairGenParams;
using gst::PairGenerator;
using gst::PromisingPair;
using gst::SuffixTree;
using test::random_store;

TEST(SuffixEnumeration, SkipsMaskedAndShort) {
  seq::FragmentStore store;
  // ACG N ACGTA  -> runs: [0,3) and [4,9)
  store.add_ascii("ACGNACGTA");
  const auto suffixes = gst::enumerate_suffixes(store, 3);
  // Run 1 (len 3): positions 0 (len 3). Run 2 (len 5): positions 4..6.
  ASSERT_EQ(suffixes.size(), 4u);
  EXPECT_EQ(suffixes[0].pos, 0u);
  EXPECT_EQ(suffixes[0].len, 3u);
  EXPECT_EQ(suffixes[0].cls, gst::kClassLambda);
  EXPECT_EQ(suffixes[1].pos, 4u);
  EXPECT_EQ(suffixes[1].len, 5u);
  // Position 4 follows a masked char: class must be λ.
  EXPECT_EQ(suffixes[1].cls, gst::kClassLambda);
  EXPECT_EQ(suffixes[2].pos, 5u);
  EXPECT_EQ(suffixes[2].len, 4u);
  // Position 5 follows 'A' (code 0): class 1.
  EXPECT_EQ(suffixes[2].cls, 1);
  EXPECT_EQ(suffixes[3].pos, 6u);
  EXPECT_EQ(suffixes[3].len, 3u);
}

TEST(SuffixTree, InvariantsTinyKnownInput) {
  seq::FragmentStore store;
  store.add_ascii("ACGTACGT");
  store.add_ascii("CGTACGTT");
  SuffixTree tree(store, GstParams{.min_match = 2, .prefix_w = 0});
  EXPECT_EQ(tree.check_invariants(), "");
  EXPECT_GT(tree.num_nodes(), 0u);
  EXPECT_GT(tree.num_leaves(), 0u);
}

class SuffixTreeRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SuffixTreeRandom, InvariantsHold) {
  util::Prng rng(GetParam());
  const auto store = random_store(rng, 8 + rng.below(8), 20, 120, 0.05);
  SuffixTree tree(store, GstParams{.min_match = 3, .prefix_w = 0});
  EXPECT_EQ(tree.check_invariants(), "") << "seed " << GetParam();
}

TEST_P(SuffixTreeRandom, LeavesHoldExactlyTheSuffixesSharingAPsiPrefix) {
  util::Prng rng(GetParam() * 53 + 2);
  const std::uint32_t psi = 4 + static_cast<std::uint32_t>(rng.below(6));
  const auto store = random_store(rng, 8 + rng.below(8), 20, 120, 0.05);
  SuffixTree tree(store, GstParams{.min_match = psi, .prefix_w = 0});
  ASSERT_EQ(tree.check_invariants(), "") << "seed " << GetParam();

  std::vector<int> leaves_of(tree.num_suffixes(), 0);
  for (std::uint32_t id = 0; id < tree.num_nodes(); ++id) {
    const auto& nd = tree.node(id);
    EXPECT_GE(nd.depth, psi) << "node " << id;
    if (!nd.is_leaf()) continue;
    for (std::uint32_t i = nd.suffix_begin; i < nd.suffix_end; ++i)
      ++leaves_of[i];
  }
  // Brute force over all suffix pairs: shares its first psi characters with
  // some other suffix <=> sits in exactly one leaf (else in none).
  std::size_t lone = 0;
  for (std::uint32_t i = 0; i < tree.num_suffixes(); ++i) {
    const auto& a = tree.suffix(i);
    const auto ta = store.seq(a.seq).subspan(a.pos, psi);
    bool shared = false;
    for (std::uint32_t j = 0; j < tree.num_suffixes() && !shared; ++j) {
      const auto& b = tree.suffix(j);
      shared = j != i && std::ranges::equal(
                             ta, store.seq(b.seq).subspan(b.pos, psi));
    }
    EXPECT_EQ(leaves_of[i], shared ? 1 : 0)
        << "seed " << GetParam() << " suffix " << i;
    if (!shared) ++lone;
  }
  EXPECT_GT(lone, 0u) << "input too repetitive to exercise dropped suffixes";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuffixTreeRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

TEST(SuffixTree, HighlyRepetitiveInput) {
  seq::FragmentStore store;
  store.add_ascii("AAAAAAAAAAAAAAAAAAAA");
  store.add_ascii("AAAAAAAAAA");
  store.add_ascii("ACACACACACACACACAC");
  store.add_ascii("CACACACACACACACA");
  SuffixTree tree(store, GstParams{.min_match = 2, .prefix_w = 0});
  EXPECT_EQ(tree.check_invariants(), "");
}

TEST(SuffixTree, BucketedBuildEqualsUnbucketed) {
  util::Prng rng(77);
  const auto store = random_store(rng, 12, 30, 90);
  const std::uint32_t psi = 4, w = 2;
  SuffixTree plain(store, GstParams{.min_match = psi, .prefix_w = 0});

  // Manually bucket the suffixes by w-prefix and build with bucket starts.
  auto suffixes = gst::enumerate_suffixes(store, psi);
  std::map<std::uint32_t, std::vector<gst::Suffix>> buckets;
  for (const auto& s : suffixes) buckets[gst::bucket_of(store, s, w)].push_back(s);
  std::vector<gst::Suffix> grouped;
  std::vector<std::uint32_t> begins;
  for (auto& [b, v] : buckets) {
    begins.push_back(static_cast<std::uint32_t>(grouped.size()));
    grouped.insert(grouped.end(), v.begin(), v.end());
  }
  SuffixTree bucketed(store, std::move(grouped), begins, w,
                      GstParams{.min_match = psi, .prefix_w = w});
  EXPECT_EQ(bucketed.check_invariants(), "");

  // Same pair stream content (as multisets of maximal matches).
  auto pa = PairGenerator::generate_all(plain, {.dup_elim = false});
  auto pb = PairGenerator::generate_all(bucketed, {.dup_elim = false});
  auto key = [](const PromisingPair& p) {
    return std::tuple(p.seq_a, p.pos_a, p.seq_b, p.pos_b, p.match_len);
  };
  std::multiset<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                           std::uint32_t, std::uint32_t>>
      ma, mb;
  for (const auto& p : pa) ma.insert(key(p));
  for (const auto& p : pb) mb.insert(key(p));
  EXPECT_EQ(ma, mb);
}

// --- Pair generation: the heart of the paper -------------------------------

class PairGenRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PairGenRandom, SuffixLevelMatchesBruteForce) {
  util::Prng rng(GetParam());
  const std::uint32_t psi = 3 + static_cast<std::uint32_t>(rng.below(4));
  const auto store = random_store(rng, 6 + rng.below(6), 15, 60, 0.04);
  SuffixTree tree(store, GstParams{.min_match = psi, .prefix_w = 0});
  ASSERT_EQ(tree.check_invariants(), "");

  const auto expected = test::brute_force_maximal_matches(store, psi);
  const auto pairs = PairGenerator::generate_all(tree, {.dup_elim = false});
  std::set<test::MaxMatch> got;
  for (const auto& p : pairs) {
    auto [it, fresh] =
        got.insert({p.seq_a, p.pos_a, p.seq_b, p.pos_b, p.match_len});
    EXPECT_TRUE(fresh) << "duplicate maximal match emitted (seed "
                       << GetParam() << ")";
  }
  EXPECT_EQ(got, expected) << "seed " << GetParam() << " psi " << psi;
}

TEST_P(PairGenRandom, EmittedInNonIncreasingMatchLengthOrder) {
  util::Prng rng(GetParam() * 977 + 5);
  const auto store = random_store(rng, 10, 20, 80);
  SuffixTree tree(store, GstParams{.min_match = 3, .prefix_w = 0});
  PairGenerator gen(tree, {.dup_elim = false});
  PromisingPair p;
  std::uint32_t last = UINT32_MAX;
  while (gen.next(p)) {
    EXPECT_LE(p.match_len, last);
    last = p.match_len;
  }
}

TEST_P(PairGenRandom, DupElimCoversAllPairsAtLeastOnce) {
  util::Prng rng(GetParam() * 31 + 7);
  const std::uint32_t psi = 3;
  const auto store = random_store(rng, 8 + rng.below(8), 15, 70, 0.03);
  SuffixTree tree(store, GstParams{.min_match = psi, .prefix_w = 0});

  const auto expected = test::brute_force_promising_pairs(store, psi);
  const auto pairs = PairGenerator::generate_all(tree, {.dup_elim = true});
  std::set<std::pair<std::uint32_t, std::uint32_t>> got;
  for (const auto& p : pairs) got.insert({p.seq_a, p.seq_b});
  EXPECT_EQ(got, expected) << "seed " << GetParam();

  // At most once per node => no more emissions than distinct maximal
  // matches (suffix-level count bounds fragment-level count).
  const auto suffix_level =
      PairGenerator::generate_all(tree, {.dup_elim = false});
  EXPECT_LE(pairs.size(), suffix_level.size());
}

TEST_P(PairGenRandom, DupElimAnchorsAreRealMatches) {
  util::Prng rng(GetParam() * 131 + 3);
  const auto store = random_store(rng, 10, 20, 60);
  SuffixTree tree(store, GstParams{.min_match = 3, .prefix_w = 0});
  const auto pairs = PairGenerator::generate_all(tree, {.dup_elim = true});
  for (const auto& p : pairs) {
    const auto ta = store.seq(p.seq_a);
    const auto tb = store.seq(p.seq_b);
    ASSERT_LE(p.pos_a + p.match_len, ta.size());
    ASSERT_LE(p.pos_b + p.match_len, tb.size());
    for (std::uint32_t k = 0; k < p.match_len; ++k) {
      ASSERT_TRUE(seq::is_base(ta[p.pos_a + k]));
      ASSERT_EQ(ta[p.pos_a + k], tb[p.pos_b + k]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairGenRandom,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(PairGen, DoubledInputFiltersSelfAndMirror) {
  util::Prng rng(123);
  seq::FragmentStore plain = random_store(rng, 6, 40, 80);
  const auto doubled = seq::make_doubled_store(plain);
  SuffixTree tree(doubled, GstParams{.min_match = 8, .prefix_w = 0});
  PairGenerator gen(tree, {.dup_elim = true, .doubled_input = true});
  PromisingPair p;
  std::set<std::pair<std::uint32_t, std::uint32_t>> frag_pairs;
  while (gen.next(p)) {
    // Never pairs a fragment with itself or its own reverse complement.
    EXPECT_NE(p.seq_a >> 1, p.seq_b >> 1);
    // Canonical form: lower fragment appears on its forward strand.
    EXPECT_LT(p.seq_a >> 1, p.seq_b >> 1);
    EXPECT_EQ(p.seq_a & 1u, 0u);
    frag_pairs.insert({p.seq_a >> 1, p.seq_b >> 1});
  }
}

TEST(PairGen, FindsReverseComplementOverlap) {
  // f2 is the reverse complement of f1's tail + extra: they overlap only
  // through the RC strand.
  util::Prng rng(9);
  const auto base = test::random_dna(rng, 60);
  std::vector<seq::Code> f1(base.begin(), base.begin() + 40);
  std::vector<seq::Code> tail(base.begin() + 20, base.begin() + 60);
  const auto f2 = seq::reverse_complement(tail);
  seq::FragmentStore plain;
  plain.add(f1);
  plain.add(f2);
  const auto doubled = seq::make_doubled_store(plain);
  SuffixTree tree(doubled, GstParams{.min_match = 10, .prefix_w = 0});
  const auto pairs = PairGenerator::generate_all(
      tree, {.dup_elim = true, .doubled_input = true});
  bool found = false;
  for (const auto& p : pairs) {
    if ((p.seq_a >> 1) == 0 && (p.seq_b >> 1) == 1) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PairGen, NoPairsBelowPsi) {
  seq::FragmentStore store;
  store.add_ascii("ACGTACGTAA");
  store.add_ascii("TTTTGGGGCC");  // shares no 4-mer with the first
  SuffixTree tree(store, GstParams{.min_match = 4, .prefix_w = 0});
  const auto pairs = PairGenerator::generate_all(tree, {.dup_elim = false});
  EXPECT_TRUE(pairs.empty());
}

TEST(PairGen, MaskingSuppressesPairs) {
  // Identical fragments, but one has the shared region masked out.
  seq::FragmentStore store;
  store.add_ascii("ACGTACGTACGTACGTACGT");
  store.add_ascii("ACGTACGTACGTACGTACGT");
  store.mask(1, 0, 20);
  SuffixTree tree(store, GstParams{.min_match = 8, .prefix_w = 0});
  const auto pairs = PairGenerator::generate_all(tree, {.dup_elim = true});
  EXPECT_TRUE(pairs.empty());
}

// --- Pair-stream pin ---------------------------------------------------------

// FNV-1a over the exact ordered pair stream: any change in which pairs are
// emitted, their anchors, or their order changes the value.
std::uint64_t stream_hash(const std::vector<PromisingPair>& pairs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& p : pairs) {
    mix(p.seq_a);
    mix(p.pos_a);
    mix(p.seq_b);
    mix(p.pos_b);
    mix(p.match_len);
  }
  return h;
}

std::vector<PromisingPair> doubled_stream(const seq::FragmentStore& plain,
                                          std::uint32_t psi) {
  const auto doubled = seq::make_doubled_store(plain);
  SuffixTree tree(doubled, GstParams{.min_match = psi, .prefix_w = 0});
  return PairGenerator::generate_all(
      tree, {.dup_elim = true, .doubled_input = true});
}

// The pinned values were recorded with the full-tree build (every node
// below ψ materialized); a build that prunes what cannot carry a pair must
// reproduce the stream pair for pair.
TEST(PairStreamPin, RandomStoreDoubledDupElim) {
  util::Prng rng(20261019);
  const auto plain = random_store(rng, 60, 40, 220, 0.01);
  const auto pairs = doubled_stream(plain, 7);
  EXPECT_EQ(pairs.size(), 2272u);
  EXPECT_EQ(stream_hash(pairs), 9363835982869632698ULL);
}

TEST(PairStreamPin, SimReadsDoubledDupElim) {
  const auto genome = sim::simulate_genome(sim::shotgun_like(12'000, 11));
  util::Prng rng(12);
  sim::ReadSet rs;
  sim::ReadParams rp;
  rp.len_mean = 300;
  rp.len_spread = 60;
  sim::sample_wgs(rs, genome, 8.0, rp, rng);
  // Mask a window in every seventh read so runs end inside fragments too.
  for (std::uint32_t i = 0; i < rs.store.size(); i += 7)
    rs.store.mask(i, 100, 120);
  const auto pairs = doubled_stream(rs.store, 20);
  EXPECT_EQ(pairs.size(), 7592u);
  EXPECT_EQ(stream_hash(pairs), 5134365816378710712ULL);
}

TEST(PairGen, NodeBudgetBoundsEachCallAndKeepsTheStream) {
  util::Prng rng(31);
  const auto plain = random_store(rng, 40, 40, 160, 0.01);
  const auto doubled = seq::make_doubled_store(plain);
  SuffixTree tree(doubled, GstParams{.min_match = 7, .prefix_w = 0});
  const PairGenParams gp{.dup_elim = true, .doubled_input = true};
  const auto expected = PairGenerator::generate_all(tree, gp);
  ASSERT_FALSE(expected.empty());

  for (const std::size_t budget : {1u, 3u, 64u}) {
    PairGenerator gen(tree, gp);
    std::vector<PromisingPair> got;
    std::size_t empty_calls = 0;
    PromisingPair p;
    while (!gen.done()) {
      const std::uint64_t before = gen.nodes_entered();
      if (gen.next(p, budget)) {
        got.push_back(p);
      } else if (!gen.done()) {
        ++empty_calls;
        // A call only gives up once it has spent the whole budget.
        EXPECT_EQ(gen.nodes_entered() - before, budget);
      }
      ASSERT_LE(gen.nodes_entered() - before, budget) << "budget " << budget;
    }
    EXPECT_EQ(got, expected) << "budget " << budget;
    EXPECT_EQ(gen.nodes_entered(), tree.num_nodes());
    EXPECT_GT(empty_calls, 0u) << "budget " << budget;
  }
}

// --- Lookup-table baseline filter (paper Section 2) -------------------------

class LookupVsGst : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LookupVsGst, SameFragmentPairSetAtEqualCutoff) {
  // With psi == w, a fragment pair shares a maximal match >= psi iff it
  // shares at least one w-mer: the two filters must produce the same
  // distinct pair set, but the lookup table emits (many) more copies.
  util::Prng rng(GetParam() * 7 + 1);
  const auto store = random_store(rng, 12, 40, 100);
  const std::uint32_t w = 8;
  SuffixTree tree(store, GstParams{.min_match = w, .prefix_w = 0});
  const auto gst_pairs =
      PairGenerator::generate_all(tree, {.dup_elim = true});
  std::set<std::pair<std::uint32_t, std::uint32_t>> gst_set;
  for (const auto& p : gst_pairs) gst_set.insert({p.seq_a, p.seq_b});

  gst::LookupFilter filter(store, {.w = w});
  std::set<std::pair<std::uint32_t, std::uint32_t>> lut_set;
  std::uint64_t lut_count = 0;
  PromisingPair p;
  while (filter.next(p)) {
    lut_set.insert({p.seq_a, p.seq_b});
    ++lut_count;
    // Anchors are real exact w-mers.
    const auto a = store.seq(p.seq_a);
    const auto b = store.seq(p.seq_b);
    for (std::uint32_t k = 0; k < w; ++k) {
      ASSERT_EQ(a[p.pos_a + k], b[p.pos_b + k]);
    }
  }
  EXPECT_EQ(lut_set, gst_set) << "seed " << GetParam();
  EXPECT_GE(lut_count, gst_pairs.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LookupVsGst,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(LookupFilter, LongMatchEmitsManyCopies) {
  // The Section 2 argument: an exact match of length l appears as
  // (l - w + 1) w-mer hits.
  util::Prng rng(5);
  const auto shared = test::random_dna(rng, 60);
  seq::FragmentStore store;
  std::vector<seq::Code> f1 = test::random_dna(rng, 20);
  f1.insert(f1.end(), shared.begin(), shared.end());
  std::vector<seq::Code> f2(shared);
  auto tail = test::random_dna(rng, 20);
  f2.insert(f2.end(), tail.begin(), tail.end());
  store.add(f1);
  store.add(f2);
  const std::uint32_t w = 11;
  gst::LookupFilter filter(store, {.w = w});
  std::uint64_t count = 0;
  PromisingPair p;
  while (filter.next(p)) ++count;
  EXPECT_GE(count, 60u - w + 1u - 2u);  // ~l - w + 1 (allow random extras)

  // The GST generator emits the pair once.
  SuffixTree tree(store, GstParams{.min_match = w, .prefix_w = 0});
  const auto gst_pairs = PairGenerator::generate_all(tree, {.dup_elim = true});
  EXPECT_EQ(gst_pairs.size(), 1u);
}

TEST(LookupFilter, DedupPerWordAndDoubledInput) {
  util::Prng rng(9);
  seq::FragmentStore plain = random_store(rng, 6, 40, 80);
  const auto doubled = seq::make_doubled_store(plain);
  gst::LookupFilter filter(doubled,
                           {.w = 9, .doubled_input = true,
                            .dedup_per_word = true});
  PromisingPair p;
  std::set<std::tuple<std::uint32_t, std::uint32_t>> seen;
  while (filter.next(p)) {
    EXPECT_LT(p.seq_a >> 1, p.seq_b >> 1);
    EXPECT_EQ(p.seq_a & 1u, 0u);  // canonical mirror
  }
  EXPECT_GT(filter.stats().table_entries, 0u);
}

TEST(LookupFilter, TopWordsSummaryIsCanonical) {
  // The heaviest-word summary iterates an unordered per-word tally, so it
  // goes through util::sorted_items before ranking (DESIGN.md §16): pairs
  // descending, ties by word ascending, capped, and identical run to run.
  util::Prng rng(9);
  const auto shared = test::random_dna(rng, 60);
  seq::FragmentStore store;
  for (int i = 0; i < 4; ++i) {
    auto frag = test::random_dna(rng, 20);
    frag.insert(frag.end(), shared.begin(), shared.end());
    store.add(frag);
  }
  const auto run = [&] {
    gst::LookupFilter filter(store, {.w = 9});
    PromisingPair p;
    while (filter.next(p)) {
    }
    return filter.stats().top_words;
  };
  const auto words = run();
  ASSERT_FALSE(words.empty());
  EXPECT_LE(words.size(), 8u);
  for (std::size_t i = 1; i < words.size(); ++i) {
    EXPECT_GE(words[i - 1].second, words[i].second);
    if (words[i - 1].second == words[i].second) {
      EXPECT_LT(words[i - 1].first, words[i].first);
    }
  }
  EXPECT_EQ(words, run());
}

TEST(PairGen, PairSetMonotoneInPsi) {
  // Lower psi admits every pair a higher psi admits (a maximal match of
  // length >= psi2 is also >= psi1 < psi2).
  util::Prng rng(777);
  const auto store = random_store(rng, 14, 30, 90);
  std::set<std::pair<std::uint32_t, std::uint32_t>> prev;
  bool first = true;
  for (std::uint32_t psi : {12u, 8u, 5u, 3u}) {
    SuffixTree tree(store, GstParams{.min_match = psi, .prefix_w = 0});
    const auto pairs = PairGenerator::generate_all(tree, {.dup_elim = true});
    std::set<std::pair<std::uint32_t, std::uint32_t>> cur;
    for (const auto& p : pairs) cur.insert({p.seq_a, p.seq_b});
    if (!first) {
      for (const auto& pr : prev) {
        EXPECT_TRUE(cur.count(pr)) << "pair lost when lowering psi";
      }
    }
    prev = std::move(cur);
    first = false;
  }
}

TEST(PairGen, MemoryIsLinear) {
  util::Prng rng(4242);
  const auto store = random_store(rng, 60, 80, 120);
  SuffixTree tree(store, GstParams{.min_match = 6, .prefix_w = 0});
  PairGenerator gen(tree, {.dup_elim = true});
  PromisingPair p;
  std::uint64_t peak = 0;
  while (gen.next(p)) peak = std::max(peak, gen.memory_bytes());
  // Generous linear bound: a small constant times input characters.
  EXPECT_LT(peak, 64 * store.total_length() + (1u << 16));
}

}  // namespace
}  // namespace pgasm
