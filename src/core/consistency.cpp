#include "core/consistency.hpp"

#include <algorithm>

namespace pgasm::core {

namespace {
/// How many of the strongest implied overlaps to verify before giving up.
constexpr int kMaxChecks = 3;
}  // namespace

ConsistencyResolver::ConsistencyResolver(const seq::FragmentStore& doubled,
                                         const align::OverlapParams& params,
                                         std::int64_t tolerance)
    : doubled_(&doubled),
      params_(params),
      tolerance_(tolerance),
      layout_(doubled.size() / 2),
      members_(doubled.size() / 2) {
  for (std::uint32_t f = 0; f < members_.size(); ++f) members_[f] = {f};
}

std::pair<std::int64_t, std::int64_t> ConsistencyResolver::interval(
    const Placed& p) const {
  const std::int64_t len = doubled_->length(p.frag << 1);
  const std::int64_t s =
      p.to_root.flip ? p.to_root(len - 1) : p.to_root(0);
  return {s, s + len};
}

bool ConsistencyResolver::implied_overlap_holds(std::uint32_t frag_x,
                                                const olc::Transform& x_to_f,
                                                std::uint32_t frag_y,
                                                const olc::Transform& y_to_f) {
  const auto sx = doubled_->seq((frag_x << 1) | (x_to_f.flip ? 1u : 0u));
  const auto sy = doubled_->seq((frag_y << 1) | (y_to_f.flip ? 1u : 0u));
  const std::int64_t start_x =
      x_to_f.flip ? x_to_f(static_cast<std::int64_t>(sx.size()) - 1)
                  : x_to_f(0);
  const std::int64_t start_y =
      y_to_f.flip ? y_to_f(static_cast<std::int64_t>(sy.size()) - 1)
                  : y_to_f(0);
  const std::int32_t shift = static_cast<std::int32_t>(start_x - start_y);
  ++verifications_;
  // The implied diagonal is only known to within the placement tolerance,
  // so the band widens by it.
  const auto r = align::banded_overlap_align(
      sx, sy, params_.scoring, shift,
      params_.band + static_cast<std::uint32_t>(tolerance_), ws_);
  return align::accept_overlap(r, params_);
}

bool ConsistencyResolver::admit(std::uint32_t fa, std::uint32_t fb, bool rc_a,
                                bool rc_b, std::int32_t delta) {
  const std::int64_t len_a = doubled_->length(fa << 1);
  const std::int64_t len_b = doubled_->length(fb << 1);
  const olc::Transform t_ba =
      olc::overlap_transform(rc_a, rc_b, delta, len_a, len_b);

  auto [ra, ta] = layout_.find(fa);
  auto [rb, tb] = layout_.find(fb);
  if (ra == rb) return true;  // caller merges only across clusters

  // Transform of rb's frame into ra's frame implied by this overlap.
  const olc::Transform rb_to_ra = ta * t_ba * tb.inverse();

  // Gather implied placements of both sides in ra's frame.
  std::vector<Placed> side_a, side_b;
  side_a.reserve(members_[ra].size());
  for (std::uint32_t f : members_[ra]) {
    side_a.push_back({f, layout_.find(f).second});
  }
  side_b.reserve(members_[rb].size());
  for (std::uint32_t f : members_[rb]) {
    side_b.push_back({f, rb_to_ra * layout_.find(f).second});
  }

  // Strongest implied cross overlaps, excluding the admitting pair itself.
  struct Cand {
    std::int64_t overlap;
    std::size_t ia, ib;
  };
  std::vector<Cand> cands;
  const std::int64_t decisive =
      static_cast<std::int64_t>(params_.min_overlap) + 2 * tolerance_;
  std::vector<std::pair<std::int64_t, std::int64_t>> ivals_a(side_a.size());
  for (std::size_t i = 0; i < side_a.size(); ++i)
    ivals_a[i] = interval(side_a[i]);
  for (std::size_t j = 0; j < side_b.size(); ++j) {
    const auto ib = interval(side_b[j]);
    for (std::size_t i = 0; i < side_a.size(); ++i) {
      if (side_a[i].frag == fa && side_b[j].frag == fb) continue;
      const std::int64_t ovl = std::min(ivals_a[i].second, ib.second) -
                               std::max(ivals_a[i].first, ib.first);
      if (ovl >= decisive) cands.push_back({ovl, i, j});
    }
  }
  bool admissible = true;
  if (!cands.empty()) {
    std::partial_sort(cands.begin(),
                      cands.begin() + std::min<std::size_t>(kMaxChecks,
                                                            cands.size()),
                      cands.end(), [](const Cand& x, const Cand& y) {
                        return x.overlap > y.overlap;
                      });
    admissible = false;
    const std::size_t checks = std::min<std::size_t>(kMaxChecks, cands.size());
    for (std::size_t k = 0; k < checks && !admissible; ++k) {
      const auto& c = cands[k];
      admissible = implied_overlap_holds(side_a[c.ia].frag,
                                         side_a[c.ia].to_root,
                                         side_b[c.ib].frag,
                                         side_b[c.ib].to_root);
    }
  }
  if (!admissible) {
    ++rejections_;
    return false;
  }

  // Commit: merge layout and member lists under the new root.
  layout_.unite(fa, fb, t_ba, tolerance_);
  const std::uint32_t new_root = layout_.find(fa).first;
  const std::uint32_t other = (new_root == ra) ? rb : ra;
  auto& dst = members_[new_root];
  auto& src = members_[other];
  dst.insert(dst.end(), src.begin(), src.end());
  src.clear();
  src.shrink_to_fit();
  return true;
}

}  // namespace pgasm::core
