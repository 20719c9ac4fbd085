#include "pipeline/validation.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "align/overlap.hpp"
#include "align/workspace.hpp"

namespace pgasm::pipeline {

std::vector<std::uint32_t> benchmark_islands(
    const std::vector<sim::ReadTruth>& truth) {
  const std::size_t n = truth.size();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (truth[a].genome_id != truth[b].genome_id)
      return truth[a].genome_id < truth[b].genome_id;
    return truth[a].begin < truth[b].begin;
  });
  std::vector<std::uint32_t> island(n, 0);
  std::uint32_t next_island = 0;
  std::uint32_t cur_genome = UINT32_MAX;
  std::uint64_t cur_end = 0;
  bool open = false;
  for (std::uint32_t idx : order) {
    const auto& t = truth[idx];
    if (!open || t.genome_id != cur_genome || t.begin >= cur_end) {
      ++next_island;
      cur_genome = t.genome_id;
      cur_end = t.end;
      open = true;
    } else {
      cur_end = std::max(cur_end, t.end);
    }
    island[idx] = next_island - 1;
  }
  return island;
}

PurityReport evaluate_purity(
    const std::vector<std::vector<std::uint32_t>>& cluster_sets,
    const std::vector<sim::ReadTruth>& truth) {
  PurityReport report;
  const auto island = benchmark_islands(truth);

  std::map<std::uint32_t, std::set<std::size_t>> island_clusters;
  std::set<std::uint32_t> islands_seen;
  for (std::uint32_t isl : island) islands_seen.insert(isl);
  report.islands = islands_seen.size();

  for (std::size_t ci = 0; ci < cluster_sets.size(); ++ci) {
    const auto& members = cluster_sets[ci];
    // Track island -> clusters for all clusters (splitting counts even
    // singletons: a read alone in a cluster still splits its island).
    for (std::uint32_t m : members) island_clusters[island[m]].insert(ci);
    if (members.size() < 2) continue;
    ++report.clusters_evaluated;
    report.reads_evaluated += members.size();
    bool pure = true;
    for (std::uint32_t m : members) {
      if (island[m] != island[members[0]]) {
        pure = false;
        break;
      }
    }
    report.pure_clusters += pure;
  }
  if (report.clusters_evaluated > 0) {
    report.purity = static_cast<double>(report.pure_clusters) /
                    static_cast<double>(report.clusters_evaluated);
  }
  if (!island_clusters.empty()) {
    double sum = 0;
    for (const auto& [isl, cls] : island_clusters)
      sum += static_cast<double>(cls.size());
    report.avg_clusters_per_island =
        sum / static_cast<double>(island_clusters.size());
  }
  return report;
}

}  // namespace pgasm::pipeline

namespace pgasm::pipeline {

namespace {
/// Fragment length from its truth record (reads may carry vector bases or
/// indels; the truth interval is close enough for coverage bucketing).
std::uint64_t fragments_len_of(const std::vector<std::uint32_t>& members,
                               const olc::Placement& placement,
                               const std::vector<sim::ReadTruth>& truth) {
  const auto& t = truth[members[placement.fragment]];
  return t.end - t.begin;
}
}  // namespace

ConsensusAccuracy evaluate_consensus(
    const std::vector<std::vector<std::uint32_t>>& cluster_sets,
    const std::vector<olc::AssemblyResult>& assemblies,
    const std::vector<sim::ReadTruth>& truth,
    std::span<const sim::Genome> genomes, std::uint64_t max_cells) {
  ConsensusAccuracy acc;
  // One workspace for the whole evaluation: contig-vs-genome alignments
  // are large, and keeping the peak buffer across contigs avoids
  // reallocating per alignment.
  const align::Scoring scoring{};
  align::Workspace ws;
  for (std::size_t ci = 0; ci < assemblies.size(); ++ci) {
    const auto& members = cluster_sets[ci];
    for (const auto& contig : assemblies[ci].contigs) {
      if (contig.is_singleton()) continue;
      // True source region: union of the layout members' coordinates.
      bool mixed = false;
      std::uint32_t genome_id = 0;
      std::uint64_t lo = UINT64_MAX, hi = 0;
      bool first = true;
      for (const auto& placement : contig.layout) {
        const auto& t = truth[members[placement.fragment]];
        if (first) {
          genome_id = t.genome_id;
          first = false;
        } else if (t.genome_id != genome_id) {
          mixed = true;
          break;
        }
        lo = std::min(lo, t.begin);
        hi = std::max(hi, t.end);
      }
      if (mixed || first || genome_id >= genomes.size()) {
        ++acc.contigs_skipped;
        continue;
      }
      const auto& genome = genomes[genome_id].sequence;
      hi = std::min<std::uint64_t>(hi, genome.size());
      if (lo >= hi ||
          (hi - lo) * contig.consensus.size() > max_cells) {
        ++acc.contigs_skipped;
        continue;
      }
      const std::span<const seq::Code> slice(genome.data() + lo, hi - lo);
      // The contig's orientation relative to the genome is arbitrary:
      // align both ways, keep the better. End-free alignment lets the
      // (possibly longer) slice overhang for free.
      const align::AlignOptions opts{.keep_ops = true};
      const auto fwd =
          align::overlap_align(contig.consensus, slice, scoring, ws, opts);
      const auto rcv = seq::reverse_complement(contig.consensus);
      const auto rev = align::overlap_align(rcv, slice, scoring, ws, opts);
      const bool use_rev = rev.aln.score > fwd.aln.score;
      const auto& best = use_rev ? rev : fwd;
      ++acc.contigs_evaluated;
      acc.columns += best.aln.columns;
      acc.errors += best.aln.columns - best.aln.matches;

      // Per-column coverage from the layout (offset-approximate).
      std::vector<std::uint16_t> coverage(contig.consensus.size(), 0);
      for (const auto& placement : contig.layout) {
        const std::uint64_t flen =
            fragments_len_of(members, placement, truth);
        const std::int64_t b = std::max<std::int64_t>(0, placement.offset);
        const std::int64_t e = std::min<std::int64_t>(
            static_cast<std::int64_t>(coverage.size()),
            placement.offset + static_cast<std::int64_t>(flen));
        for (std::int64_t p = b; p < e; ++p) ++coverage[p];
      }
      if (use_rev) std::reverse(coverage.begin(), coverage.end());
      // Attribute alignment columns to coverage depth buckets.
      std::size_t i = best.aln.a_begin;
      for (const align::Op op : best.aln.ops) {
        const bool consumes_contig = op != align::Op::kInsertB;
        const bool err = op != align::Op::kMatch;
        const std::size_t at = std::min(i, coverage.size() - 1);
        if (coverage[at] >= 3) {
          ++acc.deep_columns;
          acc.deep_errors += err;
        }
        if (consumes_contig) ++i;
      }
    }
  }
  return acc;
}

}  // namespace pgasm::pipeline
