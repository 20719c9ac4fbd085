// Inconsistent-overlap resolution during cluster formation — the paper's
// Section 10 future-work item, implemented as implied-overlap verification.
//
// The transitive formulation tolerates inconsistent overlaps (paper Fig.
// 2(a)): f1-f2 and f2-f3 may overlap while f1 and f3, which the implied
// layout says must overlap, do not. That is exactly the signature of a
// repeat-induced join: two unrelated regions glued through a shared repeat
// produce a layout whose implied flank overlaps fail the alignment test.
//
// The resolver maintains an orientation-aware layout per cluster (LayoutUF)
// plus per-cluster member placements. Before committing a merge, it selects
// the cluster members whose implied intervals overlap the incoming fragment
// the most and runs the ordinary banded suffix-prefix alignment at the
// layout-implied diagonal. If all the implied overlaps fail, the merge is
// refused. Fragments joined by a single thin edge imply no independent
// overlap, so clean sparse joins are unaffected.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "align/overlap.hpp"
#include "align/workspace.hpp"
#include "olc/layout.hpp"
#include "seq/fragment_store.hpp"

namespace pgasm::core {

class ConsistencyResolver {
 public:
  /// `doubled` is the forward+RC store (fragment f = sequences 2f, 2f+1).
  ConsistencyResolver(const seq::FragmentStore& doubled,
                      const align::OverlapParams& params,
                      std::int64_t tolerance);

  /// Register an accepted overlap between fragments fa and fb (orientation
  /// flags and oriented-frame offset from the alignment). Returns true if
  /// the merge is geometrically admissible; false if the implied flank
  /// overlaps contradict it. Must be called only for fragments in
  /// different clusters; admitting merges the internal layout.
  bool admit(std::uint32_t fa, std::uint32_t fb, bool rc_a, bool rc_b,
             std::int32_t delta);

  std::uint64_t rejections() const noexcept { return rejections_; }
  std::uint64_t verification_alignments() const noexcept {
    return verifications_;
  }

 private:
  struct Placed {
    std::uint32_t frag;
    olc::Transform to_root;
  };

  /// Fragment interval [start, end) in its root frame.
  std::pair<std::int64_t, std::int64_t> interval(const Placed& p) const;

  /// Check the implied overlap between members x and y expressed in a
  /// common frame (transforms to that frame). True if the alignment test
  /// at the implied diagonal passes.
  bool implied_overlap_holds(std::uint32_t frag_x,
                             const olc::Transform& x_to_f,
                             std::uint32_t frag_y,
                             const olc::Transform& y_to_f);

  const seq::FragmentStore* doubled_;
  align::OverlapParams params_;
  std::int64_t tolerance_;
  align::Workspace ws_;
  olc::LayoutUF layout_;
  std::vector<std::vector<std::uint32_t>> members_;  // frags by root
  std::uint64_t rejections_ = 0;
  std::uint64_t verifications_ = 0;
};

}  // namespace pgasm::core
