// Greedy overlap-layout-consensus assembler — the serial assembler run on
// each cluster (the paper uses CAP3 here; the framework only requires *a*
// stringent conventional assembler, see Section 3).
//
// Phases:
//   overlap  — promising pairs from a GST over the cluster's fragments
//              (+ reverse complements) at a stricter ψ, verified with
//              banded suffix-prefix alignments at higher identity; each
//              distinct (pair, shift) key is aligned once and its outcome
//              replayed for every repeat emission;
//   layout   — overlaps sorted by score, greedily folded into an
//              orientation-aware layout union-find; placements that
//              contradict earlier (better) overlaps are rejected;
//   consensus — per-column majority vote over the placed fragments,
//              splitting at zero-coverage columns;
//   polish   — realign every placed fragment to the draft and re-vote,
//              until stable or polish_passes rounds.
//
// A cluster too large for one rank is assembled by a Team (DESIGN.md §17):
// the owner builds the pair plan, the members split the alignments and the
// polish votes, and every member ends with the same result. A team of one
// is the plain serial assembler.
#pragma once

#include <cstdint>
#include <vector>

#include "align/overlap.hpp"
#include "olc/layout.hpp"
#include "seq/fragment_store.hpp"

namespace pgasm::olc {

struct AssemblyParams {
  /// Stricter than clustering: the paper assembles each cluster "with a
  /// higher stringency" than the clustering criterion.
  std::uint32_t psi = 24;
  align::OverlapParams overlap{
      .scoring = {},
      .min_overlap = 40,
      .min_identity = 0.96,
      .band = 12,
  };
  std::int64_t placement_tolerance = 10;
  std::uint32_t min_consensus_coverage = 1;
  /// Consensus polishing: realign every fragment to the draft consensus
  /// (banded) and re-vote per aligned column, letting gap majorities drop
  /// columns. Fixes the indel drift a fixed-offset vote cannot see — the
  /// step CAP3 performs during its consensus phase. 0 disables.
  int polish_passes = 4;
  std::uint32_t polish_band = 48;
};

struct Placement {
  std::uint32_t fragment = 0;  ///< id within the assembled store
  bool flip = false;
  std::int64_t offset = 0;  ///< contig coordinate of the fragment's start
  std::uint32_t length = 0;  ///< fragment length (layout convenience)
};

struct Contig {
  std::vector<seq::Code> consensus;
  std::vector<Placement> layout;

  std::uint64_t length() const noexcept { return consensus.size(); }
  bool is_singleton() const noexcept { return layout.size() == 1; }
};

struct AssemblyStats {
  std::uint64_t overlaps_considered = 0;  ///< promising pairs emitted
  std::uint64_t overlaps_accepted = 0;
  std::uint64_t layout_conflicts = 0;  ///< rejected inconsistent placements
  std::uint64_t overlaps_aligned = 0;  ///< distinct (pair, shift) keys
};

struct AssemblyResult {
  std::vector<Contig> contigs;  ///< every fragment appears in exactly one
  AssemblyStats stats;

  std::size_t num_multi_contigs() const noexcept;
  std::size_t num_singletons() const noexcept;
  std::uint64_t n50() const;
};

/// Assemble one fragment set (typically one cluster's members).
AssemblyResult assemble(const seq::FragmentStore& fragments,
                        const AssemblyParams& params);

/// The ranks that assemble one cluster together. Every member calls the
/// collectives in the same order.
class Team {
 public:
  virtual ~Team() = default;
  virtual int rank() const = 0;
  virtual int size() const = 0;
  /// Replace every member's `bytes` with root's.
  virtual void broadcast(std::vector<std::uint8_t>& bytes, int root) = 0;
  /// At root: every member's bytes, indexed by rank. Elsewhere: empty.
  virtual std::vector<std::vector<std::uint8_t>> gather(
      const std::vector<std::uint8_t>& bytes, int root) = 0;
  /// Elementwise sum, modulo 2^32, of every member's equal-length
  /// `values`, left in `values` on every member.
  virtual void allreduce_sum(std::vector<std::uint32_t>& values) = 0;
};

/// The overlap candidates of a fragment set: each distinct
/// (seq_a, seq_b, shift) key of the GST pair stream over the doubled store,
/// in first-emission order, and the key index of every emission.
struct PairPlan {
  struct Key {
    std::uint32_t seq_a = 0;  ///< doubled id
    std::uint32_t seq_b = 0;  ///< doubled id
    std::int32_t shift = 0;   ///< band center of the anchored alignment
    bool operator==(const Key&) const = default;
  };
  std::vector<Key> keys;
  std::vector<std::uint32_t> emissions;
};

/// Build the GST and run the pair stream: the owner-only stage of a team
/// assembly (its memory is not replicated on the other members).
PairPlan plan_pairs(const seq::FragmentStore& fragments,
                    const AssemblyParams& params);

/// Assemble one fragment set as a team. Every member passes the same
/// fragments and params; `owner` passes plan_pairs(fragments, params), the
/// others an empty plan. Every member returns the same result, identical
/// to the serial assemble().
AssemblyResult assemble(const seq::FragmentStore& fragments,
                        const AssemblyParams& params, Team& team, int owner,
                        PairPlan plan);

}  // namespace pgasm::olc
