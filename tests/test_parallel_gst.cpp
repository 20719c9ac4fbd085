// Tests for the parallel GST construction: partitioning, bucket assignment,
// and the key equivalence — the union of all ranks' pair streams equals the
// serial pair stream.
#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "gst/pair_generator.hpp"
#include "gst/parallel_build.hpp"
#include "test_helpers.hpp"
#include "vmpi/runtime.hpp"

namespace pgasm {
namespace {

using gst::GstParams;
using gst::Suffix;
using util::WireErrc;
using util::WireFormatError;
using gst::PairGenerator;
using gst::ParallelGstParams;
using gst::PromisingPair;
using gst::SuffixTree;

TEST(Partition, CoversStoreContiguously) {
  util::Prng rng(2);
  const auto store = test::random_store(rng, 57, 10, 200);
  for (int p : {1, 2, 3, 7, 16}) {
    const auto slice = gst::partition_store(store, p);
    ASSERT_EQ(slice.size(), static_cast<std::size_t>(p) + 1);
    EXPECT_EQ(slice.front(), 0u);
    EXPECT_EQ(slice.back(), store.size());
    for (int r = 0; r < p; ++r) EXPECT_LE(slice[r], slice[r + 1]);
  }
}

TEST(Partition, RoughlyBalancedByCharacters) {
  util::Prng rng(3);
  const auto store = test::random_store(rng, 400, 50, 150);
  const int p = 8;
  const auto slice = gst::partition_store(store, p);
  const double ideal = static_cast<double>(store.total_length()) / p;
  for (int r = 0; r < p; ++r) {
    std::uint64_t chars = 0;
    for (std::uint32_t s = slice[r]; s < slice[r + 1]; ++s)
      chars += store.length(s);
    EXPECT_NEAR(static_cast<double>(chars), ideal, ideal * 0.5);
  }
}

TEST(BucketAssignment, AllNonEmptyBucketsOwnedAndBalanced) {
  std::vector<std::uint64_t> hist = {100, 0, 50, 50, 30, 30, 30, 10};
  const auto owner = gst::assign_buckets(hist, 3);
  ASSERT_EQ(owner.size(), hist.size());
  EXPECT_EQ(owner[1], -1);
  std::vector<std::uint64_t> load(3, 0);
  for (std::size_t b = 0; b < hist.size(); ++b) {
    if (hist[b] == 0) continue;
    ASSERT_GE(owner[b], 0);
    ASSERT_LT(owner[b], 3);
    load[owner[b]] += hist[b];
  }
  // LPT on this instance: 100 / 50+30+30 / 50+30+10. Max load stays within
  // the classic 4/3 bound of the ideal (300/3 = 100).
  const std::uint64_t max_load = std::max({load[0], load[1], load[2]});
  EXPECT_LE(max_load, 133u);
  EXPECT_EQ(load[0] + load[1] + load[2], 300u);
}

class ParallelGstRanks : public ::testing::TestWithParam<int> {};

TEST_P(ParallelGstRanks, PairUnionEqualsSerial) {
  const int p = GetParam();
  util::Prng rng(911);
  const auto store = test::random_store(rng, 40, 40, 120, 0.02);
  const std::uint32_t psi = 8, w = 3;

  // Serial reference.
  SuffixTree serial(store, GstParams{.min_match = psi, .prefix_w = 0});
  const auto ref = PairGenerator::generate_all(serial, {.dup_elim = false});
  std::set<test::MaxMatch> expected;
  for (const auto& q : ref)
    expected.insert({q.seq_a, q.pos_a, q.seq_b, q.pos_b, q.match_len});

  // Parallel: each rank builds its subforest and generates pairs; union.
  std::mutex mu;
  std::set<test::MaxMatch> got;
  bool dup = false;
  vmpi::Runtime rt(p);
  rt.run([&](vmpi::Comm& comm) {
    ParallelGstParams params;
    params.gst = GstParams{.min_match = psi, .prefix_w = w};
    params.fetch_batch_chars = 512;  // force multiple fetch rounds
    auto dist = gst::build_distributed_gst(comm, store, params);
    ASSERT_EQ(dist.tree->check_invariants(), "");
    PairGenerator gen(*dist.tree, {.dup_elim = false});
    PromisingPair q;
    std::lock_guard<std::mutex> lock(mu);
    while (gen.next(q)) {
      test::MaxMatch mm{dist.local_to_global[q.seq_a], q.pos_a,
                        dist.local_to_global[q.seq_b], q.pos_b, q.match_len};
      if (std::get<0>(mm) > std::get<2>(mm)) {
        mm = {std::get<2>(mm), std::get<3>(mm), std::get<0>(mm),
              std::get<1>(mm), std::get<4>(mm)};
      }
      if (!got.insert(mm).second) dup = true;
    }
  });
  EXPECT_FALSE(dup) << "a maximal match was generated on two ranks";
  EXPECT_EQ(got, expected);
}

TEST_P(ParallelGstRanks, StatsArePopulated) {
  const int p = GetParam();
  util::Prng rng(1234);
  const auto store = test::random_store(rng, 30, 50, 100);
  vmpi::Runtime rt(p);
  rt.run([&](vmpi::Comm& comm) {
    ParallelGstParams params;
    params.gst = GstParams{.min_match = 10, .prefix_w = 4};
    auto dist = gst::build_distributed_gst(comm, store, params);
    const auto total_suffixes =
        comm.allreduce_sum<std::uint64_t>(dist.stats.local_suffixes);
    const auto serial_count =
        gst::enumerate_suffixes(store, 10).size();
    EXPECT_EQ(total_suffixes, serial_count);
    EXPECT_GE(dist.stats.fetch_rounds, 1u);
    if (comm.rank() == 0 && p > 1) {
      // With several ranks someone must fetch remote fragments.
      const auto fetched =
          comm.allreduce_sum<std::uint64_t>(dist.stats.fetched_fragments);
      EXPECT_GT(fetched, 0u);
    } else if (p > 1) {
      (void)comm.allreduce_sum<std::uint64_t>(dist.stats.fetched_fragments);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelGstRanks,
                         ::testing::Values(1, 2, 3, 5, 8));

// The same multi-round fetch with every rank but rank 0 in its own
// process, so the fetch payloads cross a real process boundary. Each rank
// ships its pairs back through the stash.
TEST(ParallelGst, MultiRoundFetchAcrossProcessesEqualsSerial) {
  const int p = 3;
  util::Prng rng(911);
  const auto store = test::random_store(rng, 40, 40, 120, 0.02);
  const std::uint32_t psi = 8, w = 3;
  SuffixTree serial(store, GstParams{.min_match = psi, .prefix_w = 0});
  std::set<test::MaxMatch> expected;
  for (const auto& q :
       PairGenerator::generate_all(serial, {.dup_elim = false})) {
    expected.insert({q.seq_a, q.pos_a, q.seq_b, q.pos_b, q.match_len});
  }

  constexpr std::uint32_t kPairs = 1, kRounds = 2, kTreeOk = 3;
  vmpi::Runtime rt(p, "proc");
  const auto cost = rt.run([&](vmpi::Comm& comm) {
    ParallelGstParams params;
    params.gst = GstParams{.min_match = psi, .prefix_w = w};
    params.fetch_batch_chars = 512;  // force multiple fetch rounds
    auto dist = gst::build_distributed_gst(comm, store, params);
    PairGenerator gen(*dist.tree, {.dup_elim = false});
    std::vector<std::uint32_t> flat;
    PromisingPair q;
    while (gen.next(q)) {
      flat.insert(flat.end(), {dist.local_to_global[q.seq_a], q.pos_a,
                               dist.local_to_global[q.seq_b], q.pos_b,
                               q.match_len});
    }
    comm.stash_put(kPairs, flat.data(), flat.size() * sizeof(flat[0]));
    comm.stash_value<std::uint64_t>(kRounds, dist.stats.fetch_rounds);
    comm.stash_value<std::uint8_t>(
        kTreeOk, dist.tree->check_invariants().empty() ? 1 : 0);
  });

  std::set<test::MaxMatch> got;
  bool dup = false;
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(cost.stash_value<std::uint8_t>(r, kTreeOk), 1) << "rank " << r;
    EXPECT_GT(cost.stash_value<std::uint64_t>(r, kRounds).value_or(0), 1u)
        << "rank " << r << " fetched in a single round";
    const auto& bytes = cost.stash[static_cast<std::size_t>(r)].at(kPairs);
    std::vector<std::uint32_t> flat(bytes.size() / sizeof(std::uint32_t));
    if (!flat.empty()) std::memcpy(flat.data(), bytes.data(), bytes.size());
    for (std::size_t i = 0; i + 5 <= flat.size(); i += 5) {
      test::MaxMatch mm{flat[i], flat[i + 1], flat[i + 2], flat[i + 3],
                        flat[i + 4]};
      if (std::get<0>(mm) > std::get<2>(mm)) {
        mm = {std::get<2>(mm), std::get<3>(mm), std::get<0>(mm),
              std::get<1>(mm), std::get<4>(mm)};
      }
      if (!got.insert(mm).second) dup = true;
    }
  }
  EXPECT_FALSE(dup) << "a maximal match was generated on two ranks";
  EXPECT_EQ(got, expected);
}

// --- Fetch codec: one owner's reply to one request list ---------------------

seq::FragmentStore fetch_store() {
  seq::FragmentStore store;
  store.add_ascii("ACGTA");
  store.add_ascii("GG");
  store.add_ascii("TTNCA");
  store.add_ascii("C");
  return store;
}

WireErrc fetch_error(const std::vector<std::uint8_t>& bytes,
                     const std::vector<std::uint32_t>& requested) {
  auto r = gst::try_decode_fetch_reply(bytes, requested);
  EXPECT_FALSE(r.has_value()) << "a bad fetch reply was accepted";
  return r.has_value() ? WireErrc{} : r.error().code;
}

TEST(GstFetchCodec, RoundTripsInRequestOrder) {
  const auto store = fetch_store();
  const std::vector<std::uint32_t> req{2, 0, 3};
  const auto bytes = gst::encode_fetch_reply(store, 0, 4, req);
  auto r = gst::try_decode_fetch_reply(bytes, req);
  ASSERT_TRUE(r.has_value()) << r.error().message();
  ASSERT_EQ(r.value().size(), req.size());
  for (std::size_t i = 0; i < req.size(); ++i) {
    const auto want = store.seq(req[i]);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), r.value()[i].begin(),
                           r.value()[i].end()))
        << "request " << i;
  }
  EXPECT_TRUE(gst::try_decode_fetch_reply({}, {}).has_value());
}

TEST(GstFetchCodec, TruncatedHeaderIsRejected) {
  const auto store = fetch_store();
  auto bytes =
      gst::encode_fetch_reply(store, 0, 4, std::vector<std::uint32_t>{1});
  bytes.resize(6);  // id + half of the count
  EXPECT_EQ(fetch_error(bytes, {1}), WireErrc::kTruncated);
}

TEST(GstFetchCodec, CountPastTheEndIsRejected) {
  const auto store = fetch_store();
  auto bytes =
      gst::encode_fetch_reply(store, 0, 4, std::vector<std::uint32_t>{0});
  bytes[4] += 1;  // one code more than the payload carries
  EXPECT_EQ(fetch_error(bytes, {0}), WireErrc::kTruncated);
}

TEST(GstFetchCodec, UnrequestedIdIsRejected) {
  const auto store = fetch_store();
  const auto bytes =
      gst::encode_fetch_reply(store, 0, 4, std::vector<std::uint32_t>{3});
  EXPECT_EQ(fetch_error(bytes, {1}), WireErrc::kBadValue);
}

TEST(GstFetchCodec, ReorderedIdIsRejected) {
  const auto store = fetch_store();
  // Same ids and lengths, answered in the wrong order: only the id check
  // can tell.
  const auto bytes =
      gst::encode_fetch_reply(store, 0, 4, std::vector<std::uint32_t>{2, 0});
  EXPECT_EQ(fetch_error(bytes, {0, 2}), WireErrc::kBadValue);
}

TEST(GstFetchCodec, TrailingBytesAreRejected) {
  const auto store = fetch_store();
  auto bytes =
      gst::encode_fetch_reply(store, 0, 4, std::vector<std::uint32_t>{1});
  bytes.push_back(0);
  EXPECT_EQ(fetch_error(bytes, {1}), WireErrc::kOversized);
}

TEST(GstFetchCodec, CodeOutOfRangeIsRejected) {
  const auto store = fetch_store();
  auto bytes =
      gst::encode_fetch_reply(store, 0, 4, std::vector<std::uint32_t>{1});
  bytes.back() = seq::kMask + 1;
  EXPECT_EQ(fetch_error(bytes, {1}), WireErrc::kBadValue);
}

TEST(GstFetchCodec, RequestOutsideServerSliceIsRejected) {
  const auto store = fetch_store();
  for (const std::uint32_t id : {0u, 3u, 4u, 1000u}) {
    try {
      (void)gst::encode_fetch_reply(store, 1, 3,
                                    std::vector<std::uint32_t>{1, id});
      ADD_FAILURE() << "served id " << id << " outside slice [1, 3)";
    } catch (const WireFormatError& e) {
      EXPECT_EQ(e.error().code, WireErrc::kBadValue);
    }
  }
}

// --- Checks on peer-supplied construction state -----------------------------

// The detail of the check that rejected `s` (each check names itself).
std::string suffix_error(const seq::FragmentStore& store, Suffix s) {
  try {
    gst::check_received_suffixes(store, std::vector<Suffix>{s}, 2);
  } catch (const WireFormatError& e) {
    EXPECT_EQ(e.error().code, WireErrc::kBadValue);
    return e.error().detail;
  }
  return "accepted";
}

TEST(GstReceivedState, EnumeratedSuffixesAreAccepted) {
  const auto store = fetch_store();
  EXPECT_NO_THROW(gst::check_received_suffixes(
      store, gst::enumerate_suffixes(store, 2), 2));
}

TEST(GstReceivedState, SuffixSeqOutsideStoreIsRejected) {
  EXPECT_EQ(suffix_error(fetch_store(), {.seq = 4, .pos = 0, .len = 2}),
            "suffix seq outside the store");
}

TEST(GstReceivedState, SuffixPosPastFragmentIsRejected) {
  EXPECT_EQ(suffix_error(fetch_store(), {.seq = 1, .pos = 2, .len = 0}),
            "suffix pos past its fragment");
}

TEST(GstReceivedState, SuffixLengthOutsideFragmentIsRejected) {
  EXPECT_EQ(suffix_error(fetch_store(), {.seq = 0, .pos = 2, .len = 4}),
            "suffix length outside its fragment");
  EXPECT_EQ(suffix_error(fetch_store(), {.seq = 0, .pos = 2, .len = 1}),
            "suffix length outside its fragment");
}

TEST(GstReceivedState, SuffixClassOutOfRangeIsRejected) {
  EXPECT_EQ(suffix_error(fetch_store(),
                         {.seq = 0, .pos = 1, .len = 2,
                          .cls = static_cast<std::uint8_t>(gst::kNumClasses)}),
            "suffix class out of range");
}

// One fragment with a masked position at 8: effective lengths run to it.
seq::FragmentStore masked_store() {
  seq::FragmentStore store;
  store.add_ascii("ACGTACGTNACGTACGT");
  return store;
}

TEST(GstReceivedState, SuffixCrossingMaskIsRejected) {
  const auto store = masked_store();
  EXPECT_NO_THROW(gst::check_received_suffixes(
      store, gst::enumerate_suffixes(store, 2), 2));
  // In bounds, but [0, 17) spans the mask: the tree build would index its
  // group array with the mask code.
  EXPECT_EQ(suffix_error(store, {.seq = 0, .pos = 0, .len = 17}),
            "suffix length is not the effective length at pos");
  EXPECT_EQ(suffix_error(store, {.seq = 0, .pos = 8, .len = 9}),
            "suffix starts on a masked position");
}

TEST(GstReceivedState, SuffixShorterThanEffectiveLengthIsRejected) {
  EXPECT_EQ(suffix_error(masked_store(), {.seq = 0, .pos = 0, .len = 4}),
            "suffix length is not the effective length at pos");
  EXPECT_EQ(suffix_error(masked_store(), {.seq = 0, .pos = 9, .len = 7}),
            "suffix length is not the effective length at pos");
}

TEST(GstReceivedState, SuffixClassDisagreesWithTextIsRejected) {
  // Position 1 follows an A (class 1); position 9 follows the mask (λ).
  EXPECT_EQ(suffix_error(masked_store(),
                         {.seq = 0, .pos = 1, .len = 7, .cls = 2}),
            "suffix class disagrees with the text");
  EXPECT_EQ(suffix_error(masked_store(),
                         {.seq = 0, .pos = 9, .len = 8, .cls = 1}),
            "suffix class disagrees with the text");
}

TEST(GstReceivedState, SuffixesOutOfCanonicalOrderAreRejected) {
  const auto store = masked_store();
  const auto good = gst::enumerate_suffixes(store, 2);
  ASSERT_GE(good.size(), 3u);
  auto swapped = good;
  std::swap(swapped[1], swapped[2]);
  auto repeated = good;
  repeated[2] = repeated[1];
  for (const auto& bad : {swapped, repeated}) {
    try {
      gst::check_received_suffixes(store, bad, 2);
      ADD_FAILURE() << "records out of canonical order accepted";
    } catch (const WireFormatError& e) {
      EXPECT_EQ(std::string(e.error().detail),
                "suffix records out of canonical order");
    }
  }
}

TEST(GstReceivedState, OwnerTableOutsideRanksIsRejected) {
  EXPECT_NO_THROW(
      gst::check_owner_table(std::vector<std::int32_t>{-1, 0, 2, 1}, 4, 3));
  for (const std::int32_t bad : {3, -2}) {
    try {
      gst::check_owner_table(std::vector<std::int32_t>{0, bad, 1, 1}, 4, 3);
      ADD_FAILURE() << "owner " << bad << " accepted for 3 ranks";
    } catch (const WireFormatError& e) {
      EXPECT_EQ(e.error().code, WireErrc::kBadValue);
    }
  }
  try {
    gst::check_owner_table(std::vector<std::int32_t>{0, 1}, 4, 3);
    ADD_FAILURE() << "a 2-entry table accepted for 4 buckets";
  } catch (const WireFormatError& e) {
    EXPECT_EQ(e.error().code, WireErrc::kCountMismatch);
  }
}

TEST(ParallelGst, RebuiltPortionSurvivesMove) {
  // rebuild_rank_portion's tree references the portion's own local_store;
  // moving the DistributedGst (as the generator-takeover path does via
  // make_unique) must re-seat that reference, or the tree dangles into the
  // destroyed temporary and pair generation reads freed memory.
  util::Prng rng(77);
  const auto store = test::random_store(rng, 30, 40, 120, 0.02);
  ParallelGstParams params;
  params.gst = GstParams{.min_match = 8, .prefix_w = 3};
  const auto owner =
      std::vector<std::int32_t>(gst::num_buckets(3), 1);  // role 1 owns all

  auto moved = std::make_unique<gst::DistributedGst>(
      gst::rebuild_rank_portion(store, owner, 1, params));
  ASSERT_TRUE(moved->tree);
  EXPECT_EQ(&moved->tree->store(), &moved->local_store);
  ASSERT_EQ(moved->tree->check_invariants(), "");

  gst::DistributedGst assigned;
  assigned = std::move(*moved);
  EXPECT_EQ(&assigned.tree->store(), &assigned.local_store);

  // The rebuilt-and-moved portion must still generate the full pair stream.
  PairGenerator gen(*assigned.tree, {.dup_elim = false});
  PromisingPair q;
  std::size_t pairs = 0;
  while (gen.next(q)) ++pairs;
  SuffixTree serial(store, GstParams{.min_match = 8, .prefix_w = 0});
  const auto ref = PairGenerator::generate_all(serial, {.dup_elim = false});
  EXPECT_EQ(pairs, ref.size());
}

// ---- Fault-tolerant construction -----------------------------------------

// Union-equals-serial under the fault-tolerant point-to-point path, with
// and without injected faults. Collects every surviving rank's pair stream
// (mapped to global ids) and compares the set against the serial tree.
std::set<test::MaxMatch> ft_pair_union(int p, const seq::FragmentStore& store,
                                       vmpi::FaultPlan faults,
                                       gst::GstBuildStats* agg = nullptr,
                                       bool* dup_out = nullptr) {
  std::mutex mu;
  std::set<test::MaxMatch> got;
  bool dup = false;
  vmpi::Runtime rt(p, {}, std::move(faults));
  rt.run([&](vmpi::Comm& comm) {
    ParallelGstParams params;
    params.gst = GstParams{.min_match = 8, .prefix_w = 3};
    params.fault_tolerant = true;
    auto dist = gst::build_distributed_gst(comm, store, params);
    ASSERT_EQ(dist.tree->check_invariants(), "");
    PairGenerator gen(*dist.tree, {.dup_elim = false});
    PromisingPair q;
    std::lock_guard<std::mutex> lock(mu);
    if (agg != nullptr) {
      agg->buckets_reassigned += dist.stats.buckets_reassigned;
      agg->ranks_recovered += dist.stats.ranks_recovered;
      agg->ft_retries += dist.stats.ft_retries;
      agg->portion_rebuilt |= dist.stats.portion_rebuilt;
    }
    while (gen.next(q)) {
      test::MaxMatch mm{dist.local_to_global[q.seq_a], q.pos_a,
                        dist.local_to_global[q.seq_b], q.pos_b, q.match_len};
      if (std::get<0>(mm) > std::get<2>(mm)) {
        mm = {std::get<2>(mm), std::get<3>(mm), std::get<0>(mm),
              std::get<1>(mm), std::get<4>(mm)};
      }
      if (!got.insert(mm).second) dup = true;
    }
  });
  if (dup_out != nullptr) *dup_out = dup;
  return got;
}

std::set<test::MaxMatch> serial_pairs(const seq::FragmentStore& store) {
  SuffixTree serial(store, GstParams{.min_match = 8, .prefix_w = 0});
  const auto ref = PairGenerator::generate_all(serial, {.dup_elim = false});
  std::set<test::MaxMatch> expected;
  for (const auto& q : ref)
    expected.insert({q.seq_a, q.pos_a, q.seq_b, q.pos_b, q.match_len});
  return expected;
}

TEST_P(ParallelGstRanks, FaultTolerantPathMatchesSerial) {
  const int p = GetParam();
  util::Prng rng(911);
  const auto store = test::random_store(rng, 40, 40, 120, 0.02);
  bool dup = false;
  const auto got = ft_pair_union(p, store, {}, nullptr, &dup);
  EXPECT_FALSE(dup) << "a maximal match was generated on two ranks";
  EXPECT_EQ(got, serial_pairs(store));
}

TEST(ParallelGstFT, KilledRankBucketsAreReassigned) {
  // Rank 2 dies at its very first user send (the histogram): the
  // coordinator recomputes its slice, assigns it no buckets, and the
  // survivors' union still equals the serial pair stream.
  util::Prng rng(313);
  const auto store = test::random_store(rng, 36, 40, 120, 0.02);
  vmpi::FaultPlan faults;
  faults.crashes.push_back({.rank = 2, .at_send = 1});
  gst::GstBuildStats agg;
  const auto got = ft_pair_union(4, store, faults, &agg);
  EXPECT_EQ(got, serial_pairs(store));
  EXPECT_GE(agg.ranks_recovered, 1u);
}

TEST(ParallelGstFT, MidRedistributionCrashRecovers) {
  // Rank 1 dies partway through its suffix sends: peers that heard from it
  // use the message, the rest recompute the identical contribution, and
  // its own buckets move to survivors at the confirmation round.
  util::Prng rng(707);
  const auto store = test::random_store(rng, 36, 40, 120, 0.02);
  vmpi::FaultPlan faults;
  faults.crashes.push_back({.rank = 1, .at_send = 3});
  gst::GstBuildStats agg;
  const auto got = ft_pair_union(4, store, faults, &agg);
  EXPECT_EQ(got, serial_pairs(store));
  EXPECT_GE(agg.buckets_reassigned, 1u)
      << "the dead rank's buckets were never reassigned";
}

TEST(ParallelGstFT, DroppedMessagesAreRecomputed) {
  util::Prng rng(515);
  const auto store = test::random_store(rng, 36, 40, 120, 0.02);
  vmpi::FaultPlan faults;
  faults.drops.push_back({.rank = 1, .at_send = 1});   // lost histogram
  faults.drops.push_back({.rank = 3, .at_send = 2});   // lost suffix batch
  gst::GstBuildStats agg;
  const auto got = ft_pair_union(4, store, faults, &agg);
  EXPECT_EQ(got, serial_pairs(store));
  EXPECT_GE(agg.ft_retries, 1u);
}

TEST(ParallelGstFT, ResumeFromRecordedTableSkipsConstruction) {
  // A resumed build (recorded owner table) must produce the same portions
  // with zero construction traffic.
  util::Prng rng(212);
  const auto store = test::random_store(rng, 30, 40, 120, 0.02);
  std::vector<std::int32_t> table;
  {
    vmpi::Runtime rt(3);
    std::mutex mu;
    rt.run([&](vmpi::Comm& comm) {
      ParallelGstParams params;
      params.gst = GstParams{.min_match = 8, .prefix_w = 3};
      params.fault_tolerant = true;
      auto dist = gst::build_distributed_gst(comm, store, params);
      std::lock_guard<std::mutex> lock(mu);
      if (comm.rank() == 0) table = dist.bucket_owner;
    });
  }
  ASSERT_FALSE(table.empty());

  std::mutex mu;
  std::set<test::MaxMatch> got;
  vmpi::Runtime rt(3);
  rt.run([&](vmpi::Comm& comm) {
    ParallelGstParams params;
    params.gst = GstParams{.min_match = 8, .prefix_w = 3};
    params.fault_tolerant = true;
    params.resume_bucket_owner = &table;
    const auto before = comm.ledger().bytes_sent;
    auto dist = gst::build_distributed_gst(comm, store, params);
    EXPECT_EQ(comm.ledger().bytes_sent, before)
        << "resume must not communicate";
    EXPECT_EQ(dist.stats.resumed_from_plan, 1);
    PairGenerator gen(*dist.tree, {.dup_elim = false});
    PromisingPair q;
    std::lock_guard<std::mutex> lock(mu);
    while (gen.next(q)) {
      test::MaxMatch mm{dist.local_to_global[q.seq_a], q.pos_a,
                        dist.local_to_global[q.seq_b], q.pos_b, q.match_len};
      if (std::get<0>(mm) > std::get<2>(mm)) {
        mm = {std::get<2>(mm), std::get<3>(mm), std::get<0>(mm),
              std::get<1>(mm), std::get<4>(mm)};
      }
      got.insert(mm);
    }
  });
  EXPECT_EQ(got, serial_pairs(store));
}

TEST(ParallelGst, RejectsBadPrefix) {
  util::Prng rng(5);
  const auto store = test::random_store(rng, 5, 40, 60);
  vmpi::Runtime rt(2);
  EXPECT_THROW(rt.run([&](vmpi::Comm& comm) {
                 ParallelGstParams params;
                 params.gst = GstParams{.min_match = 4, .prefix_w = 9};
                 (void)gst::build_distributed_gst(comm, store, params);
               }),
               std::runtime_error);
}

}  // namespace
}  // namespace pgasm
