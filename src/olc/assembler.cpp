#include "olc/assembler.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "align/workspace.hpp"
#include "gst/pair_generator.hpp"
#include "gst/suffix_tree.hpp"
#include "obs/trace.hpp"
#include "util/byte_codec.hpp"
#include "util/stats.hpp"

namespace pgasm::olc {

namespace {

/// Vote weight of one base: its quality value when available (CAP3 weighs
/// consensus votes by quality), a flat default otherwise.
std::uint32_t base_weight(std::span<const std::uint8_t> qual, std::size_t k) {
  if (qual.empty()) return 10;
  return std::clamp<std::uint32_t>(qual[k], 1, 60);
}

struct Overlap {
  std::uint32_t frag_a, frag_b;  // underlying fragment ids
  std::uint8_t rc_a, rc_b;       // orientations the alignment used
  std::int32_t delta;            // start of b's oriented seq rel. to a's
  std::int32_t score;
};

/// What aligning one PairPlan key decided.
struct KeyOutcome {
  std::int32_t delta = 0;
  std::int32_t score = 0;
  std::uint8_t accepted = 0;
};

struct KeyHash {
  std::size_t operator()(const PairPlan::Key& k) const noexcept {
    std::uint64_t h = (std::uint64_t{k.seq_a} << 32) | k.seq_b;
    h ^= static_cast<std::uint32_t>(k.shift) * 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

// POD vectors cross the team as uncounted runs; members run the same
// binary. A payload that is not a whole number of records is rejected.
template <typename T>
std::vector<std::uint8_t> to_bytes(const std::vector<T>& v) {
  std::vector<std::uint8_t> out;
  util::append_run(out, v);
  return out;
}

template <typename T>
std::vector<T> from_bytes(const std::vector<std::uint8_t>& bytes) {
  util::Cursor cur(bytes);
  std::vector<T> v;
  cur.read_run(v, bytes.size() / sizeof(T), "olc team records");
  if (!cur.expect_end("olc team partial record")) {
    throw util::WireFormatError(cur.error());
  }
  return v;
}

template <typename T>
void broadcast_pod(Team& team, std::vector<T>& v, int root) {
  std::vector<std::uint8_t> bytes;
  if (team.rank() == root) bytes = to_bytes(v);
  team.broadcast(bytes, root);
  v = from_bytes<T>(bytes);
}

/// Per-stage span of a split cluster; a team of one records nothing.
obs::Span stage_span(const Team& team, const char* name) {
  if (team.size() < 2) return {};
  return obs::span(team.rank(), name, "assembly");
}

class SoloTeam final : public Team {
 public:
  int rank() const override { return 0; }
  int size() const override { return 1; }
  void broadcast(std::vector<std::uint8_t>&, int) override {}
  std::vector<std::vector<std::uint8_t>> gather(
      const std::vector<std::uint8_t>& bytes, int) override {
    return {bytes};
  }
  void allreduce_sum(std::vector<std::uint32_t>&) override {}
};

constexpr int kGap = seq::kSigma;  // vote index for "delete this column"
constexpr std::size_t kVoteWidth = seq::kSigma + 1;

/// One polish round's tally for one contig: per draft column, base and gap
/// votes; per junction between draft columns p-1 and p, insertion votes
/// for bases the reads carry there (the draft skeleton inherits its root
/// read's deletions; these columns can only be recovered by insertion
/// voting). Views into a flat buffer so a team can sum it in one reduce.
struct PolishTally {
  std::uint32_t* votes;  // draft.size() * kVoteWidth
  std::uint32_t* ins;    // (draft.size() + 1) * kSigma

  static std::size_t words(std::size_t draft_len) {
    return draft_len * kVoteWidth + (draft_len + 1) * seq::kSigma;
  }
  std::uint32_t& vote(std::size_t p, int c) { return votes[p * kVoteWidth + c]; }
  std::uint32_t& insert(std::size_t p, int c) {
    return ins[p * seq::kSigma + c];
  }
};

/// Banded-realign one placed fragment to the draft and add its votes.
void polish_vote(const Contig& contig, const Placement& pl,
                 const seq::FragmentStore& fragments,
                 const AssemblyParams& params, align::Workspace& ws,
                 PolishTally tally) {
  const auto& draft = contig.consensus;
  const std::int64_t pad = params.polish_band;
  const align::Scoring scoring{};
  auto read = std::vector<seq::Code>(fragments.seq(pl.fragment).begin(),
                                     fragments.seq(pl.fragment).end());
  const auto qspan = fragments.quality(pl.fragment);
  std::vector<std::uint8_t> qual(qspan.begin(), qspan.end());
  if (pl.flip) {
    read = seq::reverse_complement(read);
    std::reverse(qual.begin(), qual.end());
  }
  const std::int64_t dlen = static_cast<std::int64_t>(draft.size());
  const std::int64_t rlen = static_cast<std::int64_t>(read.size());
  const std::int64_t win_lo = std::max<std::int64_t>(0, pl.offset - pad);
  const std::int64_t win_hi = std::min(dlen, pl.offset + rlen + pad);
  if (win_lo >= win_hi) return;
  const align::Seq window(draft.data() + win_lo,
                          static_cast<std::size_t>(win_hi - win_lo));
  // Expected diagonal: read position i sits at draft pos offset + i,
  // i.e. window pos (offset - win_lo) + i. End-free alignment: the
  // window's pad margins are absorbed for free, so they receive no
  // spurious gap votes; only the genuinely aligned region votes.
  const auto ov = align::banded_overlap_align(
      read, window, scoring, static_cast<std::int32_t>(pl.offset - win_lo),
      params.polish_band + 8, ws, {.keep_ops = true});
  const auto& r = ov.aln;
  if (r.ops.empty()) return;  // band missed; this read abstains
  std::size_t i = r.a_begin;
  std::size_t p = static_cast<std::size_t>(win_lo + r.b_begin);
  for (const align::Op op : r.ops) {
    switch (op) {
      case align::Op::kMatch:
      case align::Op::kMismatch:
        if (seq::is_base(read[i])) {
          tally.vote(p, read[i]) += base_weight(qual, i);
        }
        ++i;
        ++p;
        break;
      case align::Op::kInsertA:  // read base absent from the draft
        if (seq::is_base(read[i])) {
          tally.insert(p, read[i]) += base_weight(qual, i);
        }
        ++i;
        break;
      case align::Op::kInsertB: {
        // Deletion quality: the smaller of the flanking base qualities.
        const std::uint32_t wl = i > 0 ? base_weight(qual, i - 1) : 10;
        const std::uint32_t wr = i < read.size() ? base_weight(qual, i) : 10;
        tally.vote(p, kGap) += std::min(wl, wr);
        ++p;
        break;
      }
    }
  }
}

/// Rebuild a contig from its summed tally: columns where gaps win are
/// dropped, majority insertions added, placements' offsets remapped.
/// Returns true if the consensus changed.
bool polish_rebuild(Contig& contig, PolishTally tally) {
  const auto& draft = contig.consensus;
  std::vector<seq::Code> polished;
  polished.reserve(draft.size());
  std::vector<std::int64_t> remap(draft.size() + 1, 0);
  bool changed = false;
  auto column_coverage = [&](std::size_t p) {
    std::uint32_t cov = 0;
    if (p < draft.size()) {
      for (int c = 0; c <= kGap; ++c) cov += tally.vote(p, c);
    }
    return cov;
  };
  auto maybe_insert = [&](std::size_t p) {
    int best = 0;
    for (int c = 1; c < seq::kSigma; ++c) {
      if (tally.insert(p, c) > tally.insert(p, best)) best = c;
    }
    // Insert when a majority of the reads spanning this junction carry the
    // base (junction coverage approximated by the flanking columns).
    const std::uint32_t cov =
        std::max(p > 0 ? column_coverage(p - 1) : 0u, column_coverage(p));
    if (tally.insert(p, best) * 2 > cov && tally.insert(p, best) >= 12) {
      polished.push_back(static_cast<seq::Code>(best));
      changed = true;
    }
  };
  for (std::size_t p = 0; p < draft.size(); ++p) {
    maybe_insert(p);
    remap[p] = static_cast<std::int64_t>(polished.size());
    int best = 0;
    std::uint32_t best_votes = tally.vote(p, 0);
    for (int c = 1; c < seq::kSigma; ++c) {
      if (tally.vote(p, c) > best_votes) {
        best = c;
        best_votes = tally.vote(p, c);
      }
    }
    if (tally.vote(p, kGap) > best_votes) {
      changed = true;  // column deleted
      continue;
    }
    seq::Code out = best_votes > 0 ? static_cast<seq::Code>(best) : draft[p];
    changed |= (out != draft[p]);
    polished.push_back(out);
  }
  maybe_insert(draft.size());
  remap[draft.size()] = static_cast<std::int64_t>(polished.size());
  if (!changed) return false;
  for (Placement& pl : contig.layout) {
    const std::int64_t clamped = std::clamp<std::int64_t>(
        pl.offset, 0, static_cast<std::int64_t>(draft.size()));
    pl.offset = remap[clamped];
  }
  contig.consensus = std::move(polished);
  return true;
}

/// Polish phase: realign-and-revote every multi-fragment contig until it is
/// stable. Each round, member r votes the placements whose index (over all
/// contigs still polishing) is r mod team size; the integer sum of the
/// tallies is the serial tally, so every member rebuilds the same drafts.
void polish(std::vector<Contig>& contigs, const seq::FragmentStore& fragments,
            const AssemblyParams& params, align::Workspace& ws, Team& team) {
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < contigs.size(); ++i) {
    if (!contigs[i].is_singleton() && !contigs[i].consensus.empty())
      active.push_back(i);
  }
  const auto members = static_cast<std::size_t>(team.size());
  const auto me = static_cast<std::size_t>(team.rank());
  std::vector<std::uint32_t> flat;
  for (int pass = 0; pass < params.polish_passes && !active.empty(); ++pass) {
    std::vector<std::size_t> base(active.size() + 1, 0);
    for (std::size_t a = 0; a < active.size(); ++a) {
      base[a + 1] =
          base[a] + PolishTally::words(contigs[active[a]].consensus.size());
    }
    flat.assign(base.back(), 0);
    auto tally_of = [&](std::size_t a) {
      std::uint32_t* v = flat.data() + base[a];
      return PolishTally{v, v + contigs[active[a]].consensus.size() *
                                    kVoteWidth};
    };
    std::size_t placement = 0;
    for (std::size_t a = 0; a < active.size(); ++a) {
      const Contig& contig = contigs[active[a]];
      for (const Placement& pl : contig.layout) {
        if (placement++ % members == me) {
          polish_vote(contig, pl, fragments, params, ws, tally_of(a));
        }
      }
    }
    team.allreduce_sum(flat);
    std::vector<std::size_t> still;
    for (std::size_t a = 0; a < active.size(); ++a) {
      if (polish_rebuild(contigs[active[a]], tally_of(a)))
        still.push_back(active[a]);
    }
    active = std::move(still);
  }
}

}  // namespace

std::size_t AssemblyResult::num_multi_contigs() const noexcept {
  std::size_t n = 0;
  for (const auto& c : contigs) n += !c.is_singleton();
  return n;
}

std::size_t AssemblyResult::num_singletons() const noexcept {
  return contigs.size() - num_multi_contigs();
}

std::uint64_t AssemblyResult::n50() const {
  std::vector<std::uint64_t> lens;
  lens.reserve(contigs.size());
  for (const auto& c : contigs) lens.push_back(c.length());
  return util::n50(std::move(lens));
}

AssemblyResult assemble(const seq::FragmentStore& fragments,
                        const AssemblyParams& params) {
  SoloTeam solo;
  return assemble(fragments, params, solo, 0, plan_pairs(fragments, params));
}

PairPlan plan_pairs(const seq::FragmentStore& fragments,
                    const AssemblyParams& params) {
  PairPlan plan;
  if (fragments.size() == 0) return plan;
  const seq::FragmentStore doubled = seq::make_doubled_store(fragments);
  gst::SuffixTree tree(doubled,
                       gst::GstParams{.min_match = params.psi, .prefix_w = 0});
  gst::PairGenerator gen(tree, {.dup_elim = true, .doubled_input = true});
  // The dup-eliminating generator still emits a pair once per GST node
  // where the two fragments share a maximal match; with no indel between
  // the matches the shift repeats too, and so would the alignment. Lookups
  // only: key indices follow first emission, never hash order.
  std::unordered_map<PairPlan::Key, std::uint32_t, KeyHash> index;
  gst::PromisingPair pr;
  while (gen.next(pr)) {
    const PairPlan::Key key{pr.seq_a, pr.seq_b, pr.shift()};
    const auto [it, fresh] = index.try_emplace(
        key, static_cast<std::uint32_t>(plan.keys.size()));
    if (fresh) plan.keys.push_back(key);
    plan.emissions.push_back(it->second);
  }
  return plan;
}

AssemblyResult assemble(const seq::FragmentStore& fragments,
                        const AssemblyParams& params, Team& team, int owner,
                        PairPlan plan) {
  AssemblyResult result;
  const std::size_t n = fragments.size();
  if (n == 0) return result;
  const auto team_size = static_cast<std::size_t>(team.size());
  const auto me = static_cast<std::size_t>(team.rank());
  const bool split = team_size > 1;
  const bool is_owner = team.rank() == owner;
  // One workspace serves every alignment of this call: the distinct-key
  // overlaps and all polish rounds.
  align::Workspace ws;

  // --- Overlap phase: member r aligns keys r, r + P, ... -------------------
  std::vector<Overlap> overlaps;
  {
    obs::Span span = stage_span(team, "asm_align");
    if (split) broadcast_pod(team, plan.keys, owner);
    const seq::FragmentStore doubled = seq::make_doubled_store(fragments);
    std::vector<KeyOutcome> mine;
    mine.reserve(plan.keys.size() / team_size + 1);
    for (std::size_t k = me; k < plan.keys.size(); k += team_size) {
      const PairPlan::Key& key = plan.keys[k];
      const auto r = align::banded_overlap_align(
          doubled.seq(key.seq_a), doubled.seq(key.seq_b),
          params.overlap.scoring, key.shift, params.overlap.band, ws);
      KeyOutcome o;
      o.accepted = align::accept_overlap(r, params.overlap) ? 1 : 0;
      o.delta = static_cast<std::int32_t>(r.aln.a_begin) -
                static_cast<std::int32_t>(r.aln.b_begin);
      o.score = r.aln.score;
      mine.push_back(o);
    }
    // The owner merges the shares back into key order and replays the
    // emission order, so the layout sees exactly the serial overlap list.
    std::vector<KeyOutcome> outcome;
    if (!split) {
      outcome = std::move(mine);
    } else {
      const auto shares = team.gather(to_bytes(mine), owner);
      if (is_owner) {
        outcome.resize(plan.keys.size());
        for (std::size_t r = 0; r < team_size; ++r) {
          const auto share = from_bytes<KeyOutcome>(shares[r]);
          for (std::size_t j = 0; j < share.size(); ++j) {
            outcome.at(r + j * team_size) = share[j];
          }
        }
      }
    }
    if (is_owner) {
      result.stats.overlaps_aligned = plan.keys.size();
      for (const std::uint32_t k : plan.emissions) {
        ++result.stats.overlaps_considered;
        const KeyOutcome& o = outcome[k];
        if (o.accepted == 0) continue;
        ++result.stats.overlaps_accepted;
        const PairPlan::Key& key = plan.keys[k];
        Overlap ov;
        ov.frag_a = key.seq_a >> 1;
        ov.frag_b = key.seq_b >> 1;
        ov.rc_a = static_cast<std::uint8_t>(key.seq_a & 1u);
        ov.rc_b = static_cast<std::uint8_t>(key.seq_b & 1u);
        ov.delta = o.delta;
        ov.score = o.score;
        overlaps.push_back(ov);
      }
    }
    if (split) {
      broadcast_pod(team, overlaps, owner);
      std::vector<AssemblyStats> stats{result.stats};
      broadcast_pod(team, stats, owner);
      result.stats = stats.at(0);
    }
  }

  // --- Layout phase: best overlaps first -----------------------------------
  // Every member runs layout and consensus on the same overlap list, so
  // every member holds the same drafts for the shared polish.
  obs::Span layout_span = stage_span(team, "asm_layout");
  std::stable_sort(overlaps.begin(), overlaps.end(),
                   [](const Overlap& x, const Overlap& y) {
                     return x.score > y.score;
                   });
  LayoutUF layout(n);
  for (const Overlap& ov : overlaps) {
    const Transform t_ba = overlap_transform(
        ov.rc_a, ov.rc_b, ov.delta, fragments.length(ov.frag_a),
        fragments.length(ov.frag_b));
    const auto outcome = layout.unite(ov.frag_a, ov.frag_b, t_ba,
                                      params.placement_tolerance);
    if (outcome == LayoutUF::UniteOutcome::kConflict) {
      ++result.stats.layout_conflicts;
    }
  }

  // --- Consensus phase ------------------------------------------------------
  for (auto& comp : layout.components()) {
    // Member placements in root frame: fragment x spans
    //   flip ? [T(len-1), T(0)] : [T(0), T(len-1)]  (inclusive).
    std::int64_t lo = INT64_MAX, hi = INT64_MIN;
    for (const auto& [x, t] : comp) {
      const std::int64_t len = fragments.length(x);
      const std::int64_t s = t.flip ? t(len - 1) : t(0);
      const std::int64_t e = t.flip ? t(0) : t(len - 1);
      lo = std::min(lo, s);
      hi = std::max(hi, e);
    }
    const std::size_t span = static_cast<std::size_t>(hi - lo + 1);
    std::vector<std::array<std::uint32_t, seq::kSigma>> votes(
        span, std::array<std::uint32_t, seq::kSigma>{});
    for (const auto& [x, t] : comp) {
      const auto text = fragments.seq(x);
      const auto qual = fragments.quality(x);
      for (std::int64_t k = 0; k < static_cast<std::int64_t>(text.size());
           ++k) {
        const seq::Code c = text[k];
        if (!seq::is_base(c)) continue;
        const std::int64_t pos = t(k) - lo;
        const seq::Code vote = t.flip ? seq::complement(c) : c;
        votes[pos][vote] += base_weight(qual, static_cast<std::size_t>(k));
      }
    }
    // Emit contigs, splitting at columns below the coverage floor.
    auto flush = [&](std::size_t begin, std::size_t end,
                     std::vector<Placement> members) {
      if (begin >= end) return;
      Contig contig;
      contig.consensus.reserve(end - begin);
      for (std::size_t p = begin; p < end; ++p) {
        int best = 0;
        for (int c = 1; c < seq::kSigma; ++c) {
          if (votes[p][c] > votes[p][best]) best = c;
        }
        contig.consensus.push_back(static_cast<seq::Code>(best));
      }
      contig.layout = std::move(members);
      result.contigs.push_back(std::move(contig));
    };

    // Column coverage (weighted) for split detection: any vote counts.
    std::vector<std::uint32_t> coverage(span, 0);
    for (std::size_t p = 0; p < span; ++p) {
      std::uint32_t cov = 0;
      for (int c = 0; c < seq::kSigma; ++c) cov += votes[p][c];
      coverage[p] = cov;
    }
    std::size_t seg_begin = 0;
    std::vector<std::pair<std::size_t, std::size_t>> segments;
    bool in_seg = false;
    for (std::size_t p = 0; p <= span; ++p) {
      const bool covered =
          p < span && coverage[p] >= params.min_consensus_coverage;
      if (covered && !in_seg) {
        seg_begin = p;
        in_seg = true;
      } else if (!covered && in_seg) {
        segments.push_back({seg_begin, p});
        in_seg = false;
      }
    }
    // Assign each fragment to the segment containing its start column.
    std::vector<std::vector<Placement>> seg_members(segments.size());
    for (const auto& [x, t] : comp) {
      const std::int64_t len = fragments.length(x);
      const std::int64_t start = (t.flip ? t(len - 1) : t(0)) - lo;
      std::size_t si = 0;
      for (; si < segments.size(); ++si) {
        if (start >= static_cast<std::int64_t>(segments[si].first) &&
            start < static_cast<std::int64_t>(segments[si].second))
          break;
      }
      if (si == segments.size()) si = segments.empty() ? 0 : segments.size() - 1;
      if (seg_members.empty()) continue;  // degenerate: no covered columns
      Placement pl;
      pl.fragment = x;
      pl.flip = t.flip;
      pl.offset = start - static_cast<std::int64_t>(segments[si].first);
      pl.length = fragments.length(x);
      seg_members[si].push_back(pl);
    }
    for (std::size_t si = 0; si < segments.size(); ++si) {
      flush(segments[si].first, segments[si].second,
            std::move(seg_members[si]));
    }
  }

  layout_span.finish();

  // --- Polish phase: realign-and-revote until stable -----------------------
  obs::Span polish_span = stage_span(team, "asm_polish");
  polish(result.contigs, fragments, params, ws, team);
  return result;
}

}  // namespace pgasm::olc
