// Serial clustering (paper Fig. 3): generate promising pairs in decreasing
// maximal-match order; align a pair only when its fragments are still in
// different clusters; merge clusters on an accepted suffix–prefix overlap.
//
// The final clustering is the transitive closure of accepted overlaps and is
// independent of processing order (Section 4); the ordering heuristic only
// reduces the number of alignments computed.
#pragma once

#include <cstdint>

#include "core/cluster_params.hpp"
#include "seq/fragment_store.hpp"
#include "util/union_find.hpp"

namespace pgasm::core {

struct ClusterResult {
  util::UnionFind clusters;  ///< over fragment ids [0, n)
  ClusterStats stats;
};

/// Cluster `fragments` (forward sequences; reverse complements are handled
/// internally via the doubled store).
ClusterResult cluster_serial(const seq::FragmentStore& fragments,
                             const ClusterParams& params);

}  // namespace pgasm::core
