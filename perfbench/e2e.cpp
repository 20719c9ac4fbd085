// pgasm_e2e: one benchmark run of one workload at one seed.
//
//   pgasm_e2e --workload wgs_asm_p4 --seed 3 --seconds 20 --trace 0
//
// It simulates the workload's read samples from --seed, writes them
// out as FASTA and loads them back (the set-up the benchmark times). A serial
// run of each sample gives the reference digest. It then calls
// pipeline::run_pipeline on the samples in turn for --seconds and checks
// every call's digest against its sample's reference. With --trace 1 it
// alternates those calls with a decomposition that calls each module's public
// entry point itself (preprocess, cluster_serial or cluster_parallel,
// olc::assemble per cluster) under spans of its own and reads the stats
// structs those calls return. Nothing inside src/ is instrumented.
//
// The last line of stdout is one JSON object: {"transport": ..., "ok": ...,
// "attempted": ..., "failed": ..., "mismatched": ..., "errors": [...],
// "metrics": {...}}.
// perfbench/run.py builds this binary, adds units and the machine
// fingerprint, and prints the benchmark's result line.
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_cluster.hpp"
#include "core/serial_cluster.hpp"
#include "olc/assembler.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/validation.hpp"
#include "preprocess/preprocess.hpp"
#include "seq/fasta.hpp"
#include "sim/community.hpp"
#include "sim/genome.hpp"
#include "sim/reads.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

using namespace pgasm;

namespace {

// --- workloads ---------------------------------------------------------------

enum class Kind { kWgs, kMaize, kEnv };

struct Workload {
  const char* name;
  Kind kind;
  std::uint64_t sample_bp;  ///< simulated read bases per sample
  int samples;              ///< read samples per run, drawn from --seed
  std::uint64_t panel_bp;   ///< quality panel size (fixed seed)
  int ranks;                ///< 0 = serial clustering, no vmpi
  const char* transport;
  bool run_assembly;
};

// Sizes are set by run length (one run_pipeline call of a few seconds on a
// 4-core machine), never to steer around a defect; see README.md. Each
// workload sequences one fixed organism (or community); --seed draws the
// read samples. How much a sample costs varies a lot from sample to sample,
// so a run averages several samples. maize_cluster_p4 is not in
// BENCHMARK.json: host load moves its wall time more than any bound allows
// (README.md "Measured steadiness"), so it is run by hand.
constexpr Workload kWorkloads[] = {
    {"wgs_asm_p4", Kind::kWgs, 300'000, 10, 300'000, 4, "thread", true},
    {"maize_cluster_p4", Kind::kMaize, 1'500'000, 8, 200'000, 4, "proc",
     false},
    {"env_full_serial", Kind::kEnv, 600'000, 5, 300'000, 0, "", true},
};
/// Samples a traced run decomposes (the first ones of the untraced set).
constexpr std::size_t kTraceSamples = 3;
constexpr std::uint64_t kGenomeSeed = 1;
constexpr std::uint64_t kPanelReadSeed = 1;

const Workload& find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Read-sampling seed of sample k of a run; disjoint from kPanelReadSeed.
std::uint64_t sample_seed(std::uint64_t seed, int k) {
  return 1'000'003ull * (seed + 1) + static_cast<std::uint64_t>(k);
}

struct Input {
  sim::ReadSet reads;
  std::vector<sim::Genome> genomes;  ///< indexed by ReadTruth::genome_id
};

// The three dataset shapes of the paper's evaluation (maize pilot, D.
// pseudoobscura WGS, Sargasso Sea), kept here rather than shared with bench/
// so that the benchmark's inputs only change when the benchmark does.

Input wgs_input(std::uint64_t target_bp, std::uint64_t genome_seed,
                std::uint64_t read_seed) {
  const double coverage = 8.0;
  Input in;
  const auto genome_len =
      static_cast<std::uint64_t>(static_cast<double>(target_bp) / coverage);
  in.genomes.push_back(
      sim::simulate_genome(sim::shotgun_like(genome_len, genome_seed)));
  util::Prng rng(read_seed);
  sim::ReadParams rp;
  rp.len_mean = 550;
  rp.len_spread = 120;
  sim::sample_wgs(in.reads, in.genomes[0], coverage, rp, rng);
  return in;
}

Input maize_input(std::uint64_t target_bp, std::uint64_t genome_seed,
                  std::uint64_t read_seed) {
  Input in;
  const std::uint64_t genome_len = target_bp / 5 * 2;
  in.genomes.push_back(
      sim::simulate_genome(sim::maize_like(genome_len, genome_seed)));
  const sim::Genome& genome = in.genomes[0];
  util::Prng rng(read_seed);
  sim::ReadParams rp;
  rp.len_mean = 650;
  rp.len_spread = 150;
  const std::size_t enriched_n = target_bp * 3 / 10 / rp.len_mean;
  sim::sample_gene_enriched(in.reads, genome, enriched_n, 0.90, rp, rng,
                            seq::FragType::kMF);
  sim::sample_gene_enriched(in.reads, genome, enriched_n, 0.85, rp, rng,
                            seq::FragType::kHC);
  sim::sample_bac(in.reads, genome, 2,
                  static_cast<std::uint32_t>(genome_len / 20), 0.5, rp, rng);
  const std::uint64_t have = in.reads.store.total_length();
  if (have < target_bp) {
    const double cov = static_cast<double>(target_bp - have) /
                       static_cast<double>(genome_len);
    sim::sample_wgs(in.reads, genome, cov, rp, rng);
  }
  return in;
}

Input env_input(std::uint64_t target_bp, std::uint64_t genome_seed,
                std::uint64_t read_seed) {
  sim::CommunityParams cp;
  cp.num_species = 120;
  cp.genome_len_min = 8'000;
  cp.genome_len_max = 40'000;
  cp.seed = genome_seed;
  auto community = sim::simulate_community(cp);
  Input in;
  util::Prng rng(read_seed);
  sim::ReadParams rp;
  rp.len_mean = 600;
  rp.len_spread = 120;
  sim::sample_community(in.reads, community, target_bp / rp.len_mean, rp, rng);
  in.genomes = std::move(community.genomes);
  return in;
}

Input make_input(Kind kind, std::uint64_t target_bp, std::uint64_t read_seed) {
  switch (kind) {
    case Kind::kWgs: return wgs_input(target_bp, kGenomeSeed, read_seed);
    case Kind::kMaize: return maize_input(target_bp, kGenomeSeed, read_seed);
    case Kind::kEnv: return env_input(target_bp, kGenomeSeed, read_seed);
  }
  throw std::logic_error("unhandled workload kind");
}

pipeline::PipelineParams pipeline_params(const Workload& w) {
  pipeline::PipelineParams p;
  p.cluster.psi = 20;
  p.cluster.prefix_w = 6;
  p.cluster.overlap.min_overlap = 40;
  p.cluster.overlap.min_identity = 0.93;
  p.cluster.overlap.band = 10;
  p.cluster.batch_size = 128;
  p.cluster.transport = w.transport;
  p.ranks = w.ranks;
  p.run_assembly = w.run_assembly;
  return p;
}

// --- digests -----------------------------------------------------------------

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
};

/// FNV-1a of the contig FASTA the examples write: every multi-fragment
/// contig, in pipeline order, named contig0, contig1, ...
std::uint64_t contig_digest(const std::vector<olc::AssemblyResult>& asms) {
  seq::FragmentStore contigs;
  std::size_t idx = 0;
  for (const auto& a : asms) {
    for (const auto& c : a.contigs) {
      if (c.is_singleton()) continue;
      contigs.add(c.consensus, seq::FragType::kUnknown,
                  "contig" + std::to_string(idx++));
    }
  }
  std::ostringstream out;
  seq::write_fasta(out, contigs);
  const std::string text = out.str();
  Fnv f;
  f.bytes(text.data(), text.size());
  return f.h;
}

/// FNV-1a of the cluster partition in pipeline order (sizes and members).
std::uint64_t partition_digest(
    const std::vector<std::vector<std::uint32_t>>& sets) {
  Fnv f;
  for (const auto& s : sets) {
    f.u64(s.size());
    for (const auto id : s) f.u64(id);
  }
  return f.h;
}

/// Same order as run_pipeline: non-singletons by decreasing size, ties by
/// smallest member id.
std::vector<std::vector<std::uint32_t>> ordered_sets(
    const util::UnionFind& uf) {
  auto sets = uf.extract_sets();
  std::stable_sort(sets.begin(), sets.end(), [](const auto& a, const auto& b) {
    if (a.size() != b.size()) return a.size() > b.size();
    return a.front() < b.front();
  });
  return sets;
}

std::uint64_t output_digest(const Workload& w,
                            const pipeline::PipelineResult& r) {
  return w.run_assembly ? contig_digest(r.assemblies)
                        : partition_digest(r.cluster_sets);
}

// --- small helpers -----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Mean over samples of each sample's median of `field`; samples without a
/// successful repetition are left out.
template <typename T, typename F>
double mean_of_medians(const std::vector<std::vector<T>>& per_sample,
                       F field) {
  double sum = 0;
  int n = 0;
  for (const auto& reps : per_sample) {
    if (reps.empty()) continue;
    std::vector<double> v;
    for (const auto& r : reps) v.push_back(field(r));
    sum += median(v);
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

/// Mean over samples of (max - min) / median of `field` across a sample's
/// repetitions; only samples with at least two repetitions count.
template <typename T, typename F>
double mean_range_frac(const std::vector<std::vector<T>>& per_sample,
                       F field) {
  double sum = 0;
  int n = 0;
  for (const auto& reps : per_sample) {
    if (reps.size() < 2) continue;
    std::vector<double> v;
    for (const auto& r : reps) v.push_back(field(r));
    const double med = median(v);
    if (med == 0) continue;
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    sum += (*hi - *lo) / med;
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

/// Writes `in`'s reads as FASTA (type tokens kept) to `path`.
void write_reads(const Input& in, const std::string& path) {
  seq::FastaWriteOptions fo;
  fo.emit_type_token = true;
  seq::write_fasta_file(path, in.reads.store, fo);
}

// --- isolated calls ----------------------------------------------------------
//
// Every pipeline call this program makes runs in a forked child that reports
// back over a pipe. Each call starts from the same parent heap, its peak RSS
// is its own (wait4), and the untimed serial runs can go side by side.

struct Spawned {
  pid_t pid = -1;
  int fd = -1;
};

struct ChildResult {
  bool ok = false;
  std::string payload;  ///< what the child's body returned, when ok
  std::string error;    ///< exception text, or how the child ended
  double peak_rss_mb = 0;  ///< max RSS over the child and its reaped ranks
};

template <typename F>
Spawned spawn(F body) {
  std::fflush(nullptr);
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    std::string out;
    try {
      out = "ok\n" + body();
    } catch (const std::exception& e) {
      out = std::string("error\n") + e.what();
    } catch (...) {
      out = "error\nunknown exception";
    }
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::write(fds[1], out.data() + off, out.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  return {pid, fds[0]};
}

/// Closes the child's pipe, waits for it and decodes what it wrote.
ChildResult finish(const Spawned& s, const std::string& text) {
  ::close(s.fd);
  int status = 0;
  rusage ru{};
  while (::wait4(s.pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  ChildResult r;
  r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const auto nl = text.find('\n');
  const std::string head = text.substr(0, nl);
  const std::string rest = nl == std::string::npos ? "" : text.substr(nl + 1);
  if (head == "ok") {
    r.ok = true;
    r.payload = rest;
  } else if (head == "error") {
    r.error = rest;
  } else if (WIFSIGNALED(status)) {
    r.error = "child killed by signal " + std::to_string(WTERMSIG(status));
  } else {
    r.error = "child exited without a result";
  }
  return r;
}

/// Appends what is readable on `fd` to `text`; false at end of file.
bool drain(int fd, std::string& text) {
  char buf[4096];
  const ssize_t n = ::read(fd, buf, sizeof(buf));
  if (n > 0) {
    text.append(buf, static_cast<std::size_t>(n));
    return true;
  }
  return n < 0 && errno == EINTR;
}

ChildResult reap(const Spawned& s) {
  std::string text;
  while (drain(s.fd, text)) {
  }
  return finish(s, text);
}

/// Runs `bodies` in forked children, at most `width` at a time; a new child
/// starts as soon as one ends.
std::vector<ChildResult> run_side_by_side(
    const std::vector<std::function<std::string()>>& bodies,
    std::size_t width) {
  struct Running {
    std::size_t index;
    Spawned child;
    std::string text;
  };
  std::vector<ChildResult> out(bodies.size());
  std::vector<Running> running;
  std::size_t next = 0;
  while (next < bodies.size() || !running.empty()) {
    while (next < bodies.size() && running.size() < width) {
      running.push_back({next, spawn(bodies[next]), {}});
      ++next;
    }
    std::vector<pollfd> fds;
    for (const auto& r : running) fds.push_back({r.child.fd, POLLIN, 0});
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("poll failed");
    }
    for (std::size_t i = running.size(); i-- > 0;) {
      if (fds[i].revents == 0 || drain(fds[i].fd, running[i].text)) continue;
      out[running[i].index] = finish(running[i].child, running[i].text);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  return out;
}

using Metrics = std::map<std::string, double>;

std::string serialize(const Metrics& m) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& [k, v] : m) out << k << ' ' << v << '\n';
  return out.str();
}

Metrics deserialize(const std::string& text) {
  Metrics m;
  std::istringstream in(text);
  std::string k;
  double v = 0;
  while (in >> k >> v) m[k] = v;
  return m;
}

// --- quality panel -----------------------------------------------------------

/// Quality ledger of the workload's fixed panel: a full serial pipeline run,
/// assembly included even for a cluster-only workload, scored against the
/// simulator's truth outside any timed region. The panel's seeds are fixed,
/// so the ledger is exact: it moves only when the program's output does.
Metrics quality_ledger(const Workload& w,
                       const pipeline::PipelineParams& params,
                       const std::string& work) {
  const Input in = make_input(w.kind, w.panel_bp, kPanelReadSeed);
  const std::string path = work + "/" + w.name + "_panel.fa";
  write_reads(in, path);
  seq::FragmentStore reads;
  seq::read_fasta_file(path, reads);
  auto p = params;
  p.ranks = 0;
  p.run_assembly = true;
  const auto r = pipeline::run_pipeline(reads, sim::vector_library(), p);

  std::vector<sim::ReadTruth> truth;
  truth.reserve(r.pre.kept_ids.size());
  for (const auto id : r.pre.kept_ids) truth.push_back(in.reads.truth.at(id));
  const auto purity = pipeline::evaluate_purity(r.cluster_sets, truth);
  const auto acc = pipeline::evaluate_consensus(r.cluster_sets, r.assemblies,
                                                truth, in.genomes);
  Metrics m;
  m["contig_n50_bp"] = static_cast<double>(r.assembly_summary.n50);
  // Add-one smoothing keeps the rate above 0 on an error-free panel.
  m["consensus_err_deep"] = static_cast<double>(acc.deep_errors + 1) /
                            static_cast<double>(acc.deep_columns + 1);
  m["consensus_deep_columns"] = static_cast<double>(acc.deep_columns);
  m["consensus_deep_errors"] = static_cast<double>(acc.deep_errors);
  m["cluster_purity"] = purity.purity;
  m["clusters_per_island"] = purity.avg_clusters_per_island;
  return m;
}

// --- traced decomposition ----------------------------------------------------

/// One traced run: its output digest and its per-layer values, keyed by the
/// BENCHMARK.json metric name, plus the trace.* spans layer_metrics needs.
struct Traced {
  std::uint64_t digest = 0;
  Metrics m;
};

std::string serialize(const Traced& t) {
  return std::to_string(t.digest) + "\n" + serialize(t.m);
}

Traced deserialize_traced(const std::string& text) {
  const auto nl = text.find('\n');
  if (nl == std::string::npos) {
    throw std::runtime_error("malformed traced-run record");
  }
  return {std::stoull(text.substr(0, nl)), deserialize(text.substr(nl + 1))};
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// The pipeline's stages, called one public entry point at a time with the
/// benchmark's own spans around each call. Assembly mirrors run_pipeline's
/// distribution, cluster ci to worker ci % ranks, but on plain threads: the
/// vmpi runtime start and the result gather of run_pipeline are in no span,
/// so they show in pipeline.residue_s.
Traced traced_decomposition(const Workload& w, const seq::FragmentStore& reads,
                            const std::vector<std::vector<seq::Code>>& vectors,
                            const pipeline::PipelineParams& params) {
  Traced t;
  Metrics& m = t.m;
  util::WallTimer total;

  util::WallTimer span;
  const auto pre = preprocess::preprocess(reads, vectors, params.pre);
  const double preprocess_s = span.elapsed();
  m["preprocess.wall_s"] = preprocess_s;
  m["preprocess.kept_frac"] = ratio(static_cast<double>(pre.store.size()),
                                    static_cast<double>(reads.size()));

  span.restart();
  util::UnionFind clusters;
  core::ClusterStats stats;
  if (params.ranks >= 2) {
    auto parallel = core::cluster_parallel(pre.store, params.cluster,
                                           params.ranks, params.cost);
    clusters = std::move(parallel.clusters);
    stats = parallel.stats;
    m["vmpi.msgs"] = static_cast<double>(parallel.cost.total_msgs());
    m["vmpi.bytes"] = static_cast<double>(parallel.cost.total_bytes());
    m["vmpi.modeled_s"] = parallel.cost.modeled_parallel_seconds();
    double max_c = 0;
    double sum_c = 0;
    for (const auto& l : parallel.cost.per_rank) {
      max_c = std::max(max_c, l.compute_seconds);
      sum_c += l.compute_seconds;
    }
    m["vmpi.rank_compute_imbalance"] = ratio(
        max_c * static_cast<double>(parallel.cost.per_rank.size()), sum_c);
  } else {
    // No vmpi runtime: the cost model's one-rank case, whose modeled time
    // is the compute it charges, the thread CPU time of the clustering.
    util::ThreadCpuTimer cpu;
    auto sr = core::cluster_serial(pre.store, params.cluster);
    m["vmpi.msgs"] = 0;
    m["vmpi.bytes"] = 0;
    m["vmpi.modeled_s"] = cpu.elapsed();
    m["vmpi.rank_compute_imbalance"] = 1.0;
    clusters = std::move(sr.clusters);
    stats = sr.stats;
  }
  const double cluster_s = span.elapsed();
  m["vmpi.measured_s"] = cluster_s;
  m["gst.build_s"] = stats.gst_seconds;
  m["gst.pairs_generated"] = static_cast<double>(stats.pairs_generated);
  m["core.cluster_s"] = stats.cluster_seconds;
  m["core.savings_frac"] = stats.savings_fraction();
  m["core.master_availability"] = stats.master_availability;
  m["core.worker_idle_frac"] = stats.worker_idle_fraction;
  m["core.pairs_aligned"] = static_cast<double>(stats.pairs_aligned);
  m["core.timeouts_fired"] = static_cast<double>(stats.timeouts_fired);
  m["core.workers_lost"] = static_cast<double>(stats.workers_lost);
  m["align.accept_frac"] = ratio(static_cast<double>(stats.pairs_accepted),
                                 static_cast<double>(stats.pairs_aligned));
  m["align.pairs_per_s_insitu"] =
      ratio(static_cast<double>(stats.pairs_aligned), stats.cluster_seconds);

  // A cluster-only workload still passes through the (then empty) assembly
  // stage, so its olc times are measured rather than a constant 0.
  const auto sets = ordered_sets(clusters);
  span.restart();
  std::size_t n_asm = 0;
  while (w.run_assembly && n_asm < sets.size() && sets[n_asm].size() >= 2) {
    ++n_asm;
  }
  std::vector<olc::AssemblyResult> asms(n_asm);
  std::vector<double> call_s(n_asm, 0.0);  // per cluster, pipeline order
  auto assemble_one = [&](std::size_t ci) {
    seq::FragmentStore sub;
    for (const auto id : sets[ci]) {
      sub.add(pre.unmasked_store.seq(id), pre.unmasked_store.type(id), {},
              pre.unmasked_store.quality(id));
    }
    util::WallTimer call;
    asms[ci] = olc::assemble(sub, params.assembly);
    call_s[ci] = call.elapsed();
  };
  const int workers = params.ranks >= 2 ? params.ranks : 1;
  if (workers == 1 || n_asm == 0) {
    for (std::size_t ci = 0; ci < n_asm; ++ci) assemble_one(ci);
  } else {
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
    {
      std::vector<std::jthread> pool;  // joined at the end of this scope
      for (int r = 0; r < workers; ++r) {
        pool.emplace_back([&, r] {
          try {
            for (auto ci = static_cast<std::size_t>(r); ci < n_asm;
                 ci += static_cast<std::size_t>(workers)) {
              assemble_one(ci);
            }
          } catch (...) {
            errors[static_cast<std::size_t>(r)] = std::current_exception();
          }
        });
      }
    }
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
  const double assembly_s = span.elapsed();
  olc::AssemblyStats olc_stats;
  for (const auto& a : asms) {
    olc_stats.overlaps_considered += a.stats.overlaps_considered;
    olc_stats.overlaps_accepted += a.stats.overlaps_accepted;
    olc_stats.layout_conflicts += a.stats.layout_conflicts;
  }
  double olc_sum = 0;
  for (const double c : call_s) olc_sum += c;
  const bool none = call_s.empty();
  m["olc.assemble_s"] = none ? assembly_s : olc_sum;
  m["olc.largest_cluster_s"] = none ? assembly_s : call_s.front();
  m["olc.largest_share"] = none ? 0.0 : ratio(call_s.front(), olc_sum);
  m["olc.cluster_p50_ms"] = 1e3 * (none ? assembly_s : percentile(call_s, 0.5));
  m["olc.cluster_p90_ms"] = 1e3 * (none ? assembly_s : percentile(call_s, 0.9));
  m["olc.overlaps_considered"] =
      static_cast<double>(olc_stats.overlaps_considered);
  m["olc.overlaps_accepted_frac"] =
      ratio(static_cast<double>(olc_stats.overlaps_accepted),
            static_cast<double>(olc_stats.overlaps_considered));
  m["olc.layout_conflicts"] = static_cast<double>(olc_stats.layout_conflicts);
  t.digest = w.run_assembly ? contig_digest(asms) : partition_digest(sets);
  m["trace.assembly_span_s"] = assembly_s;
  m["trace.spans_s"] = preprocess_s + cluster_s + assembly_s;
  m["trace.wall_s"] = total.elapsed();
  return t;
}

// --- output ------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  std::vector<std::string> errors;  ///< distinct failure messages

  void fail(const std::string& what) {
    ++failed;
    if (std::find(errors.begin(), errors.end(), what) == errors.end())
      errors.push_back(what);
  }
};

void print_result(const Workload& w, bool ok, const Tally& tally,
                  const Metrics& m) {
  std::printf("{\"transport\": \"%s\", \"ok\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"mismatched\": %llu, \"errors\": [",
              w.ranks >= 2 ? w.transport : "none", ok ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.mismatched));
  for (std::size_t i = 0; i < tally.errors.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "",
                json_escape(tally.errors[i]).c_str());
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(),
                std::isfinite(v) ? v : 0.0);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Call {
  double wall_s = 0;
  double assembly_s = 0;   ///< AssemblySummary::assembly_seconds
  double peak_rss_mb = 0;  ///< of the child that made the call
};

/// Per-layer metrics of a traced run (README.md lists what each one should
/// move): the mean over samples of each sample's median, plus the figures
/// that need more than one run or the untraced calls. `serial_aligned[k]` is
/// the serial reference's pairs_aligned on sample k.
Metrics layer_metrics(const std::vector<std::vector<Metrics>>& traced,
                      const std::vector<std::vector<Call>>& calls,
                      const std::vector<std::uint64_t>& serial_aligned,
                      bool assembles) {
  auto field = [](const char* key) {
    return [key](const Metrics& r) { return r.at(key); };
  };
  Metrics m;
  for (const auto& runs : traced) {
    if (runs.empty()) continue;
    for (const auto& [key, v] : runs.front()) {
      m[key] = mean_of_medians(traced, field(key.c_str()));
    }
    break;
  }
  m["core.pairs_aligned_spread"] =
      mean_range_frac(traced, field("core.pairs_aligned"));
  m["vmpi.msgs_spread"] = mean_range_frac(traced, field("vmpi.msgs"));
  m["vmpi.bytes_spread"] = mean_range_frac(traced, field("vmpi.bytes"));

  // Per sample: parallel minus serial pairs_aligned, and the untraced
  // run_pipeline wall time minus the traced layer spans.
  double redundant = 0;
  double residue = 0;
  int n = 0;
  for (std::size_t k = 0; k < traced.size(); ++k) {
    if (traced[k].empty() || calls[k].empty()) continue;
    std::vector<double> aligned;
    std::vector<double> spans;
    std::vector<double> walls;
    for (const auto& r : traced[k]) {
      aligned.push_back(r.at("core.pairs_aligned"));
      spans.push_back(r.at("trace.spans_s"));
    }
    for (const auto& c : calls[k]) walls.push_back(c.wall_s);
    redundant += median(aligned) - static_cast<double>(serial_aligned[k]);
    residue += median(walls) - median(spans);
    ++n;
  }
  m["core.redundant_aligned"] = n ? redundant / n : 0.0;
  m["pipeline.residue_s"] = n ? residue / n : 0.0;
  m["pipeline.assembly_s"] =
      assembles
          ? mean_of_medians(calls, [](const Call& c) { return c.assembly_s; })
          : m["trace.assembly_span_s"];
  const double untraced_wall =
      mean_of_medians(calls, [](const Call& c) { return c.wall_s; });
  m["trace.overhead_frac"] =
      ratio(m["trace.wall_s"] - untraced_wall, untraced_wall);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Flags flags(argc, argv);
    const std::string workload = flags.get_string("workload", "");
    const std::uint64_t seed = flags.get_u64("seed", 1);
    const double seconds = flags.get_double("seconds", 10);
    const bool trace = flags.get_i64("trace", 0) != 0;
    const std::string work = flags.get_string("work", ".bench_work");
    // Sample size and count overrides, for reproducing size-dependent
    // behaviour (README.md "Known failure"); 0 keeps the workload's own.
    const std::uint64_t bp_override = flags.get_u64("sample-bp", 0);
    const std::uint64_t samples_override = flags.get_u64("samples", 0);
    flags.finish();

    const Workload& w = find_workload(workload);
    const std::uint64_t bp = bp_override ? bp_override : w.sample_bp;
    const std::size_t n_samples =
        samples_override ? samples_override
        : trace ? std::min(kTraceSamples, static_cast<std::size_t>(w.samples))
                : static_cast<std::size_t>(w.samples);
    const auto params = pipeline_params(w);
    util::WallTimer clock;
    auto note = [&](const std::string& what) {
      std::fprintf(stderr, "%7.2f s  %s\n", clock.elapsed(), what.c_str());
    };

    // Inputs: read samples drawn from the seed, written out as FASTA.
    std::filesystem::create_directories(work);
    std::vector<std::string> paths;
    for (std::size_t k = 0; k < n_samples; ++k) {
      const Input in =
          make_input(w.kind, bp, sample_seed(seed, static_cast<int>(k)));
      paths.push_back(work + "/" + w.name + "_s" + std::to_string(seed) +
                      "_" + std::to_string(k) + ".fa");
      write_reads(in, paths.back());
    }
    note("inputs written");

    // Set-up: load every sample's FASTA plus the vector library. Repeated
    // here and again after every measured call, so that the reported
    // medians sample the whole run rather than one moment of it.
    std::vector<seq::FragmentStore> reads;
    std::vector<std::vector<seq::Code>> vectors;
    std::vector<double> setup_s;
    std::vector<double> load_s;
    auto set_up = [&] {
      util::WallTimer t;
      std::vector<seq::FragmentStore> loaded(n_samples);
      for (std::size_t k = 0; k < n_samples; ++k) {
        seq::read_fasta_file(paths[k], loaded[k]);
      }
      load_s.push_back(t.elapsed());
      auto library = sim::vector_library();
      setup_s.push_back(t.elapsed());
      if (reads.empty()) {
        reads = std::move(loaded);
        vectors = std::move(library);
      }
    };
    constexpr int kSetupReps = 10;
    constexpr int kSetupRepsPerCall = 3;
    for (int i = 0; i < kSetupReps; ++i) set_up();
    note("set-up done");

    // Untimed, side by side: a serial reference run of each sample, and the
    // quality panel on untraced runs.
    auto ref_params = params;
    ref_params.ranks = 0;
    std::vector<std::function<std::string()>> untimed;
    if (!trace) {
      untimed.emplace_back(
          [&] { return serialize(quality_ledger(w, params, work)); });
    }
    const std::size_t first_ref = untimed.size();
    for (std::size_t k = 0; k < n_samples; ++k) {
      untimed.emplace_back([&, k] {
        const auto r = pipeline::run_pipeline(reads[k], vectors, ref_params);
        return std::to_string(output_digest(w, r)) + " " +
               std::to_string(r.cluster_stats.pairs_aligned);
      });
    }
    const auto width = static_cast<std::size_t>(
        std::max(1u, std::thread::hardware_concurrency()));
    const auto untimed_results = run_side_by_side(untimed, width);
    std::vector<std::uint64_t> ref_digest(n_samples);
    std::vector<std::uint64_t> serial_aligned(n_samples);
    for (std::size_t k = 0; k < n_samples; ++k) {
      const auto& r = untimed_results[first_ref + k];
      if (!r.ok) throw std::runtime_error("serial reference: " + r.error);
      std::istringstream in(r.payload);
      in >> ref_digest[k] >> serial_aligned[k];
    }
    note("serial references done");

    Tally tally;
    std::vector<std::vector<Call>> calls(n_samples);
    std::vector<std::vector<Metrics>> traced(n_samples);
    auto timed_call = [&](std::size_t k) {
      ++tally.attempted;
      const auto r = reap(spawn([&] {
        util::WallTimer t;
        const auto out = pipeline::run_pipeline(reads[k], vectors, params);
        const double s = t.elapsed();
        std::ostringstream text;
        text.precision(17);
        text << s << ' ' << output_digest(w, out) << ' '
             << out.assembly_summary.assembly_seconds;
        return text.str();
      }));
      if (!r.ok) {
        tally.fail(r.error);
        return;
      }
      Call c;
      std::uint64_t digest = 0;
      std::istringstream in(r.payload);
      in >> c.wall_s >> digest >> c.assembly_s;
      c.peak_rss_mb = r.peak_rss_mb;
      std::fprintf(stderr, "sample %zu: run_pipeline %.3f s, %.1f MB\n", k,
                   c.wall_s, c.peak_rss_mb);
      if (digest != ref_digest[k]) {
        ++tally.mismatched;
        tally.fail("output digest differs from the serial reference");
        return;
      }
      calls[k].push_back(c);
    };
    auto traced_call = [&](std::size_t k) {
      ++tally.attempted;
      const auto r = reap(spawn([&] {
        return serialize(traced_decomposition(w, reads[k], vectors, params));
      }));
      if (!r.ok) {
        tally.fail(r.error);
        return;
      }
      auto t = deserialize_traced(r.payload);
      if (t.digest != ref_digest[k]) {
        ++tally.mismatched;
        tally.fail("traced decomposition digest differs from the reference");
        return;
      }
      traced[k].push_back(std::move(t.m));
    };

    // Every sample at least once, then round-robin until the time is up.
    util::WallTimer budget;
    for (std::size_t i = 0; i < n_samples || budget.elapsed() < seconds;
         ++i) {
      timed_call(i % n_samples);
      if (trace) traced_call(i % n_samples);
      for (int r = 0; r < kSetupRepsPerCall; ++r) set_up();
    }
    note("measured calls done");

    Metrics m;
    if (!trace) {
      const auto& panel = untimed_results.front();
      if (!panel.ok) throw std::runtime_error("quality panel: " + panel.error);
      m = deserialize(panel.payload);
      m["wall_s"] =
          mean_of_medians(calls, [](const Call& c) { return c.wall_s; });
      m["setup_s"] = median(setup_s);
      m["peak_rss_mb"] =
          mean_of_medians(calls, [](const Call& c) { return c.peak_rss_mb; });
      m["ok_frac"] = 1.0 - static_cast<double>(tally.failed) /
                               static_cast<double>(tally.attempted);
    } else {
      m = layer_metrics(traced, calls, serial_aligned, w.run_assembly);
      m["seq.load_s"] = median(load_s);
    }

    const bool ok = tally.mismatched == 0 && tally.failed < tally.attempted;
    print_result(w, ok, tally, m);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pgasm_e2e: %s\n", e.what());
    return 1;
  }
}
