#include "gst/parallel_build.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "gst/gst_protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"
#include "util/timer.hpp"

namespace pgasm::gst {

namespace {

/// Owner rank of a global sequence id under a contiguous partition.
int owner_of(const std::vector<std::uint32_t>& slice_begin,
             std::uint32_t seq_id) {
  const auto it =
      std::upper_bound(slice_begin.begin(), slice_begin.end(), seq_id);
  return static_cast<int>(it - slice_begin.begin()) - 1;
}

// Fault-tolerant construction tags (coordinator = rank 0) come from
// gst_protocol.hpp, where the protocol is declared as data: one
// GstMsgSpec row per tag with its recovery/duplicate story, checked by
// the static_asserts beside the table and by pgasm-lint W001 and W015.

/// Fill `result`'s local store and id map from the global store for the
/// suffixes in `local_suffixes` (global seq ids, canonical order), then
/// remap the suffixes to local ids. Local ids are assigned in sorted
/// global-id order — the same rule the distributed fetch path uses, so a
/// portion built this way is bit-identical to the one the owning rank
/// would have built.
void materialize_from_global(DistributedGst& result,
                             const seq::FragmentStore& global,
                             std::vector<Suffix>& local_suffixes) {
  std::vector<std::uint32_t> needed;
  needed.reserve(local_suffixes.size() / 4 + 1);
  for (const Suffix& s : local_suffixes) needed.push_back(s.seq);
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  result.local_to_global = needed;

  std::uint64_t needed_chars = 0;
  for (std::uint32_t g : needed) needed_chars += global.length(g);
  result.local_store.reserve(needed.size(), needed_chars);
  for (std::uint32_t g : needed)
    result.local_store.add(global.seq(g), global.type(g));

  for (Suffix& s : local_suffixes) {
    s.seq = static_cast<std::uint32_t>(
        std::lower_bound(needed.begin(), needed.end(), s.seq) -
        needed.begin());
  }
}

/// Group remapped suffixes by bucket (dense relabel in first-seen order +
/// counting sort) and build the subtree forest — step 5 of the build,
/// shared by the collective, fault-tolerant, and serial-rebuild paths so
/// all three produce identical trees from identical suffix streams.
void group_and_build(DistributedGst& result,
                     std::vector<Suffix> local_suffixes,
                     const ParallelGstParams& params) {
  const std::uint32_t w = params.gst.prefix_w;
  const std::uint32_t nbuckets = num_buckets(w);
  std::vector<std::uint32_t> bucket_ids(local_suffixes.size());
  std::vector<std::uint32_t> mine;  // this rank's non-empty buckets
  {
    // Dense relabel of owned buckets.
    std::vector<std::int32_t> dense(nbuckets, -1);
    for (std::size_t i = 0; i < local_suffixes.size(); ++i) {
      const std::uint32_t b =
          bucket_of(result.local_store, local_suffixes[i], w);
      if (dense[b] < 0) {
        dense[b] = static_cast<std::int32_t>(mine.size());
        mine.push_back(b);
      }
      bucket_ids[i] = static_cast<std::uint32_t>(dense[b]);
    }
  }
  result.stats.local_buckets = mine.size();
  std::vector<std::uint32_t> count(mine.size() + 1, 0);
  for (std::uint32_t b : bucket_ids) ++count[b + 1];
  for (std::size_t i = 1; i < count.size(); ++i) count[i] += count[i - 1];
  std::vector<std::uint32_t> bucket_begin(count.begin(), count.end() - 1);
  std::vector<Suffix> grouped(local_suffixes.size());
  for (std::size_t i = 0; i < local_suffixes.size(); ++i) {
    grouped[count[bucket_ids[i]]++] = local_suffixes[i];
  }
  local_suffixes.clear();
  local_suffixes.shrink_to_fit();

  result.tree = std::make_unique<SuffixTree>(
      result.local_store, std::move(grouped), bucket_begin, w, params.gst);
  result.stats.tree_nodes = result.tree->num_nodes();
  result.stats.tree_bytes = result.tree->memory_bytes();
}

/// What rank `src` would send rank `dest` in the suffix redistribution:
/// the suffixes of src's slice whose bucket `dest` owns, in enumeration
/// order. Pure function of (store, slice table, owner table), so a
/// receiver that never hears from src can recompute the contribution
/// locally and obtain byte-identical content.
std::vector<Suffix> slice_contribution(
    const seq::FragmentStore& global,
    const std::vector<std::uint32_t>& slice, int src, int dest,
    const std::vector<std::int32_t>& owner, const ParallelGstParams& params) {
  const auto all = enumerate_suffixes_range(global, slice[src], slice[src + 1],
                                            params.gst.min_match);
  std::vector<Suffix> out;
  for (const Suffix& s : all) {
    if (owner[bucket_of(global, s, params.gst.prefix_w)] == dest)
      out.push_back(s);
  }
  return out;
}

/// Publish one rank's build stats to the obs registry (shared by the
/// collective and fault-tolerant paths; recovery.* counters only appear
/// when the fault-tolerant machinery actually engaged).
void publish_gst_obs(int rank, const GstBuildStats& stats) {
  if (!obs::tracer().enabled()) return;
  auto& reg = obs::registry();
  const char* phase = obs::current_phase();
  reg.counter("gst.local_suffixes", rank, phase).inc(stats.local_suffixes);
  reg.counter("gst.local_buckets", rank, phase).inc(stats.local_buckets);
  reg.counter("gst.fetched_fragments", rank, phase)
      .inc(stats.fetched_fragments);
  reg.counter("gst.fetch_rounds", rank, phase).inc(stats.fetch_rounds);
  reg.counter("gst.tree_nodes", rank, phase).inc(stats.tree_nodes);
  reg.counter("gst.tree_bytes", rank, phase).inc(stats.tree_bytes);
  reg.counter("gst.bytes_sent", rank, phase).inc(stats.bytes_sent);
  reg.gauge("gst.compute_seconds", rank, phase).add(stats.compute_seconds);
  reg.gauge("gst.comm_seconds", rank, phase).add(stats.comm_seconds);
  if (stats.ranks_recovered)
    reg.counter("recovery.gst_ranks_recovered", rank, phase)
        .inc(stats.ranks_recovered);
  if (stats.buckets_reassigned)
    reg.counter("recovery.gst_buckets_reassigned", rank, phase)
        .inc(stats.buckets_reassigned);
  if (stats.ft_retries)
    reg.counter("recovery.gst_ft_retries", rank, phase)
        .inc(stats.ft_retries);
  if (stats.resumed_from_plan)
    reg.counter("recovery.gst_resumed", rank, phase).inc(1);
  if (stats.portion_rebuilt)
    reg.counter("recovery.gst_portion_rebuilt", rank, phase).inc(1);
}

DistributedGst build_distributed_gst_ft(vmpi::Comm& comm,
                                        const seq::FragmentStore& global,
                                        const ParallelGstParams& params);

}  // namespace

std::vector<std::uint32_t> partition_store(const seq::FragmentStore& store,
                                           int num_ranks) {
  // Greedy sweep: cut whenever the running character count passes the next
  // multiple of N/p. Contiguous and deterministic.
  PGASM_ASSERT(num_ranks >= 1, "partition needs at least one rank");
  if (num_ranks < 1) return {0, static_cast<std::uint32_t>(store.size())};
  const std::uint64_t total = store.total_length();
  const std::uint64_t per_rank = std::max<std::uint64_t>(1, total / num_ranks);
  std::vector<std::uint32_t> slice_begin(static_cast<std::size_t>(num_ranks) + 1,
                                         static_cast<std::uint32_t>(store.size()));
  slice_begin[0] = 0;
  std::uint64_t acc = 0;
  int next_cut = 1;
  for (std::uint32_t s = 0; s < store.size() && next_cut < num_ranks; ++s) {
    acc += store.length(s);
    if (acc >= per_rank * static_cast<std::uint64_t>(next_cut)) {
      slice_begin[next_cut++] = s + 1;
    }
  }
  for (int r = next_cut; r < num_ranks; ++r)
    slice_begin[r] = slice_begin[next_cut - 1];
  slice_begin[num_ranks] = static_cast<std::uint32_t>(store.size());
  // Ensure monotonicity (degenerate inputs).
  for (int r = 1; r <= num_ranks; ++r)
    slice_begin[r] = std::max(slice_begin[r], slice_begin[r - 1]);
  return slice_begin;
}

std::vector<std::int32_t> assign_buckets(
    const std::vector<std::uint64_t>& global_histogram, int num_ranks) {
  std::vector<std::int32_t> owner(global_histogram.size(), -1);
  // Greedy LPT: heaviest bucket first onto the least-loaded rank.
  std::vector<std::uint32_t> idx;
  idx.reserve(global_histogram.size());
  for (std::uint32_t b = 0; b < global_histogram.size(); ++b)
    if (global_histogram[b] > 0) idx.push_back(b);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return global_histogram[a] > global_histogram[b];
                   });
  std::vector<std::uint64_t> load(static_cast<std::size_t>(num_ranks), 0);
  for (std::uint32_t b : idx) {
    int best = 0;
    for (int r = 1; r < num_ranks; ++r)
      if (load[r] < load[best]) best = r;
    owner[b] = best;
    load[best] += global_histogram[b];
  }
  return owner;
}

std::vector<std::uint8_t> encode_fetch_reply(
    const seq::FragmentStore& global, std::uint32_t slice_lo,
    std::uint32_t slice_hi, std::span<const std::uint32_t> ids) {
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint32_t g = ids[i];
    if (g < slice_lo || g >= slice_hi || g >= global.size()) {
      throw util::WireFormatError(
          util::WireError{util::WireErrc::kBadValue, i * sizeof(g),
                          "fetch request outside the server's slice"});
    }
    bytes += 2 * sizeof(std::uint32_t) + global.length(g);
  }
  std::vector<std::uint8_t> out;
  out.reserve(bytes);
  for (const std::uint32_t g : ids) {
    util::append_pod(out, g);
    util::append_vec(out, global.seq(g));
  }
  return out;
}

util::WireResult<std::vector<std::vector<seq::Code>>> try_decode_fetch_reply(
    std::span<const std::uint8_t> bytes,
    std::span<const std::uint32_t> requested) {
  util::Cursor cur(bytes);
  std::vector<std::vector<seq::Code>> texts(requested.size());
  for (std::size_t i = 0; i < requested.size() && cur.ok(); ++i) {
    std::uint32_t id = 0;
    if (cur.read(id, "fetch record id") && id != requested[i]) {
      cur.fail(util::WireErrc::kBadValue, "fetch record not the one requested");
    }
    cur.read_vec(texts[i], "fetch record codes");
    for (const seq::Code c : texts[i]) {
      if (c > seq::kMask) {
        cur.fail(util::WireErrc::kBadValue, "fetch code out of range");
        break;
      }
    }
  }
  if (!cur.expect_end("fetch trailing bytes")) return cur.error();
  return texts;
}

void check_received_suffixes(const seq::FragmentStore& global,
                             std::span<const Suffix> suffixes,
                             std::uint32_t min_len) {
  // End of the unmasked run holding the previous record. Records arrive in
  // canonical (seq, pos) order, so each fragment's runs are scanned once.
  std::uint32_t run_end = 0;
  for (std::size_t i = 0; i < suffixes.size(); ++i) {
    const Suffix& s = suffixes[i];
    const char* bad = nullptr;
    if (s.seq >= global.size()) {
      bad = "suffix seq outside the store";
    } else if (s.pos >= global.length(s.seq)) {
      bad = "suffix pos past its fragment";
    } else if (s.len < min_len || s.len > global.length(s.seq) - s.pos) {
      bad = "suffix length outside its fragment";
    } else if (s.cls >= kNumClasses) {
      bad = "suffix class out of range";
    } else if (i > 0 && (s.seq < suffixes[i - 1].seq ||
                         (s.seq == suffixes[i - 1].seq &&
                          s.pos <= suffixes[i - 1].pos))) {
      bad = "suffix records out of canonical order";
    } else {
      const auto text = global.seq(s.seq);
      const auto n = static_cast<std::uint32_t>(text.size());
      if (s.pos >= run_end || s.seq != suffixes[i - 1].seq) {
        run_end = s.pos;
        while (run_end < n && seq::is_base(text[run_end])) ++run_end;
      }
      if (run_end == s.pos) {
        bad = "suffix starts on a masked position";
      } else if (s.len != run_end - s.pos) {
        bad = "suffix length is not the effective length at pos";
      } else if (s.cls != class_of(text, s.pos)) {
        bad = "suffix class disagrees with the text";
      }
    }
    if (bad != nullptr) {
      throw util::WireFormatError(util::WireError{
          util::WireErrc::kBadValue, i * sizeof(Suffix), bad});
    }
  }
}

void check_owner_table(std::span<const std::int32_t> owner,
                       std::uint32_t nbuckets, int num_ranks) {
  if (owner.size() != nbuckets) {
    throw util::WireFormatError(
        util::WireError{util::WireErrc::kCountMismatch, 0,
                        "bucket owner table size != 4^prefix_w"});
  }
  for (std::size_t b = 0; b < owner.size(); ++b) {
    if (owner[b] < -1 || owner[b] >= num_ranks) {
      throw util::WireFormatError(
          util::WireError{util::WireErrc::kBadValue, b * sizeof(owner[b]),
                          "bucket owner outside [-1, p)"});
    }
  }
}

DistributedGst build_distributed_gst(vmpi::Comm& comm,
                                     const seq::FragmentStore& global,
                                     const ParallelGstParams& params) {
  const int p = comm.size();
  const int rank = comm.rank();
  const std::uint32_t w = params.gst.prefix_w;
  if (w == 0 || w > params.gst.min_match)
    throw std::runtime_error("parallel GST requires 0 < prefix_w <= psi");

  if (params.resume_bucket_owner != nullptr) {
    // Resume from a recorded owner table: every rank rebuilds its portion
    // locally, zero construction traffic. The recorded table is the final
    // one all survivors agreed on, so clustering's per-role resume
    // positions stay valid.
    auto scope = comm.compute_scope();
    DistributedGst result =
        rebuild_rank_portion(global, *params.resume_bucket_owner, rank, params);
    result.stats.resumed_from_plan = 1;
    publish_gst_obs(rank, result.stats);
    return result;
  }
  if (params.fault_tolerant && p > 1) {
    return build_distributed_gst_ft(comm, global, params);
  }

  DistributedGst result;
  GstBuildStats& stats = result.stats;
  const auto ledger_before = comm.ledger();

  // ---- Step 1: enumerate suffixes of the local slice. -------------------
  const auto slice = partition_store(global, p);
  std::vector<Suffix> my_suffixes;
  {
    obs::Span sp = obs::span(rank, "enumerate_suffixes", "gst");
    auto scope = comm.compute_scope();
    my_suffixes = enumerate_suffixes_range(global, slice[rank], slice[rank + 1],
                                           params.gst.min_match);
    sp.arg("suffixes", my_suffixes.size());
  }

  // ---- Step 2: global bucket histogram and deterministic assignment. ----
  const std::uint32_t nbuckets = num_buckets(w);
  std::vector<std::uint64_t> hist(nbuckets, 0);
  {
    obs::Span sp = obs::span(rank, "bucket_histogram", "gst");
    {
      auto scope = comm.compute_scope();
      for (const Suffix& s : my_suffixes) ++hist[bucket_of(global, s, w)];
    }
    hist = comm.allreduce_vector(std::move(hist),
                                 [](std::uint64_t a, std::uint64_t b) {
                                   return a + b;
                                 });
  }
  std::vector<std::int32_t> bucket_owner;
  {
    auto scope = comm.compute_scope();
    if (params.exclude_rank0 && p > 1) {
      bucket_owner = assign_buckets(hist, p - 1);
      for (auto& o : bucket_owner)
        if (o >= 0) ++o;  // shift workers to ranks 1..p-1
    } else {
      bucket_owner = assign_buckets(hist, p);
    }
    result.bucket_owner = bucket_owner;
  }

  // ---- Step 3: redistribute suffixes to bucket owners. ------------------
  obs::Span redist_span = obs::span(rank, "redistribute", "gst");
  const std::uint64_t bytes_before_redist = comm.ledger().bytes_sent;
  std::vector<std::vector<Suffix>> outgoing(static_cast<std::size_t>(p));
  {
    auto scope = comm.compute_scope();
    for (const Suffix& s : my_suffixes) {
      outgoing[bucket_owner[bucket_of(global, s, w)]].push_back(s);
    }
    my_suffixes.clear();
    my_suffixes.shrink_to_fit();
  }
  auto incoming = comm.staged_alltoallv(outgoing);
  outgoing.clear();
  redist_span.arg("bytes_sent", comm.ledger().bytes_sent - bytes_before_redist);
  redist_span.finish();

  std::vector<Suffix> local_suffixes;
  {
    auto scope = comm.compute_scope();
    std::size_t total = 0;
    for (const auto& v : incoming) total += v.size();
    local_suffixes.reserve(total);
    for (auto& v : incoming) {
      local_suffixes.insert(local_suffixes.end(), v.begin(), v.end());
      v.clear();
      v.shrink_to_fit();
    }
    check_received_suffixes(global, local_suffixes, params.gst.min_match);
  }
  stats.local_suffixes = local_suffixes.size();

  // ---- Step 4: fetch the fragments the local subtrees need. -------------
  // Needed global ids, sorted.
  std::vector<std::uint32_t> needed;
  {
    auto scope = comm.compute_scope();
    needed.reserve(local_suffixes.size() / 4 + 1);
    for (const Suffix& s : local_suffixes) needed.push_back(s.seq);
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  }

  // Local ids are assigned in sorted global-id order.
  result.local_to_global = needed;
  std::uint64_t needed_chars = 0;
  for (std::uint32_t g : needed) needed_chars += global.length(g);
  result.local_store.reserve(needed.size(), needed_chars);

  // Batched request/serve rounds. Each round: Alltoallv of requested ids,
  // then Alltoallv of fetch replies (encode_fetch_reply).
  const std::uint64_t batch_chars =
      params.fetch_batch_chars == 0
          ? std::numeric_limits<std::uint64_t>::max()
          : params.fetch_batch_chars;
  std::size_t cursor = 0;  // into `needed`
  // Fetched payloads keyed by global id (filled across rounds).
  std::vector<std::vector<seq::Code>> fetched(needed.size());
  // Map global id -> local index for fill-in.
  auto local_index_of = [&](std::uint32_t g) {
    return static_cast<std::size_t>(
        std::lower_bound(needed.begin(), needed.end(), g) - needed.begin());
  };

  for (;;) {
    obs::Span round_span = obs::span(rank, "fetch_round", "gst");
    round_span.arg("round", stats.fetch_rounds);
    // Build this round's batch of requests (own-slice ids are read directly
    // from the global store: no message needed for data we already own).
    std::vector<std::vector<std::uint32_t>> req(static_cast<std::size_t>(p));
    std::uint64_t batch_acc = 0;
    {
      auto scope = comm.compute_scope();
      while (cursor < needed.size() && batch_acc < batch_chars) {
        const std::uint32_t g = needed[cursor];
        const int own = owner_of(slice, g);
        if (own != rank) {
          req[own].push_back(g);
          batch_acc += global.length(g);
        } else {
          const auto s = global.seq(g);
          fetched[local_index_of(g)].assign(s.begin(), s.end());
        }
        ++cursor;
      }
    }
    const std::uint64_t remaining = needed.size() - cursor;
    const std::uint64_t any_left = comm.allreduce_max<std::uint64_t>(remaining);

    // Request round, then serve round: each owner answers every peer's
    // ids in that peer's request order, and each requester checks the
    // reply against its own request list before trusting a byte of it.
    auto requests = comm.staged_alltoallv(req);
    std::vector<std::vector<std::uint8_t>> serve(static_cast<std::size_t>(p));
    {
      auto scope = comm.compute_scope();
      for (int d = 0; d < p; ++d) {
        serve[d] = encode_fetch_reply(global, slice[rank], slice[rank + 1],
                                      requests[d]);
      }
    }
    auto payloads = comm.staged_alltoallv(serve);
    {
      auto scope = comm.compute_scope();
      for (int src = 0; src < p; ++src) {
        auto texts =
            try_decode_fetch_reply(payloads[src], req[src]).take_or_throw();
        for (std::size_t i = 0; i < texts.size(); ++i) {
          fetched[local_index_of(req[src][i])] = std::move(texts[i]);
        }
        stats.fetched_fragments += texts.size();
      }
    }
    ++stats.fetch_rounds;
    if (any_left == 0) break;
  }

  // Materialize the local store in local-id order.
  {
    auto scope = comm.compute_scope();
    for (std::size_t i = 0; i < needed.size(); ++i) {
      result.local_store.add(fetched[i], global.type(needed[i]));
      fetched[i].clear();
      fetched[i].shrink_to_fit();
    }
  }

  // ---- Step 5: remap suffixes to local ids, group by bucket, build. -----
  {
    obs::Span sp = obs::span(rank, "build_subtrees", "gst");
    auto scope = comm.compute_scope();
    for (Suffix& s : local_suffixes) {
      s.seq = static_cast<std::uint32_t>(local_index_of(s.seq));
    }
    sp.arg("suffixes", local_suffixes.size());
    group_and_build(result, std::move(local_suffixes), params);
    sp.arg("buckets", stats.local_buckets);
  }

  const auto& ledger_after = comm.ledger();
  stats.compute_seconds =
      ledger_after.compute_seconds - ledger_before.compute_seconds;
  stats.comm_seconds = ledger_after.comm_seconds - ledger_before.comm_seconds;
  stats.bytes_sent = ledger_after.bytes_sent - ledger_before.bytes_sent;

  // Publish this rank's build stats so GstBuildStats and the obs export
  // agree. Safe from rank threads: instrument updates are atomic.
  publish_gst_obs(rank, stats);
  return result;
}

DistributedGst rebuild_rank_portion(
    const seq::FragmentStore& global,
    const std::vector<std::int32_t>& bucket_owner, int role,
    const ParallelGstParams& params) {
  const std::uint32_t w = params.gst.prefix_w;
  if (num_buckets(w) != bucket_owner.size())
    throw std::runtime_error("rebuild_rank_portion: bucket table mismatch");

  DistributedGst result;

  // Enumerate the full store (equals the concatenation of every rank's
  // slice enumeration) and keep only the role's buckets, preserving order.
  std::vector<Suffix> local_suffixes;
  {
    auto all = enumerate_suffixes(global, params.gst.min_match);
    local_suffixes.reserve(all.size() / 4 + 1);
    for (const Suffix& s : all) {
      if (bucket_owner[bucket_of(global, s, w)] == role)
        local_suffixes.push_back(s);
    }
  }
  result.stats.local_suffixes = local_suffixes.size();
  result.bucket_owner = bucket_owner;

  materialize_from_global(result, global, local_suffixes);
  group_and_build(result, std::move(local_suffixes), params);
  return result;
}

namespace {

// Fault-tolerant construction (coordinator = rank 0).
//
// The key property making recovery cheap: every protocol message's content
// is a pure function of (global store, params, owner table). A receiver
// that times out on a peer therefore recomputes the missing contribution
// locally — identical bytes, identical order — instead of requesting a
// retransmission; dead, slow, and drop-afflicted peers are all handled by
// the same code path. The coordinator collects completion confirmations,
// reassigns the buckets of ranks that never confirm (mirroring clustering's
// batch takeover), and distributes one final owner table that every
// survivor agrees on. A survivor whose owned-bucket set changed rebuilds
// its portion locally. A worker that cannot obtain the final table after
// bounded retries throws instead of diverging: a missing bucket would lose
// pairs, which is never acceptable, while aborting lets the pipeline
// supervisor retry the phase from checkpoints.
DistributedGst build_distributed_gst_ft(vmpi::Comm& comm,
                                        const seq::FragmentStore& global,
                                        const ParallelGstParams& params) {
  const int p = comm.size();
  const int rank = comm.rank();
  const std::uint32_t w = params.gst.prefix_w;
  const std::uint32_t nbuckets = num_buckets(w);
  // Bounded patience for the two worker waits that cannot be recomputed
  // locally (the plan and the final table both originate at rank 0).
  constexpr int kCoordinatorWaitTries = 60;

  DistributedGst result;
  GstBuildStats& stats = result.stats;
  const auto ledger_before = comm.ledger();
  const auto slice = partition_store(global, p);

  // ---- Step 1: enumerate the local slice; local bucket histogram. -------
  std::vector<Suffix> my_suffixes;
  std::vector<std::uint64_t> hist(nbuckets, 0);
  {
    obs::Span sp = obs::span(rank, "ft_enumerate", "gst");
    auto scope = comm.compute_scope();
    my_suffixes = enumerate_suffixes_range(global, slice[rank],
                                           slice[rank + 1],
                                           params.gst.min_match);
    for (const Suffix& s : my_suffixes) ++hist[bucket_of(global, s, w)];
    sp.arg("suffixes", my_suffixes.size());
  }

  // ---- Step 2: coordinator builds and distributes the bucket plan. ------
  std::vector<std::int32_t> plan;
  // Answer queued plan re-requests (coordinator only). Workers re-send
  // kTagFtPlanReq while their plan is missing (dropped or still in
  // flight), so the coordinator drains the queue at every opportunity.
  auto service_plan_reqs = [&]() {
    if (rank != 0 || plan.empty()) return;
    vmpi::Status st;
    while (comm.iprobe(vmpi::kAnySource, kTagFtPlanReq, &st)) {
      (void)comm.recv_value<int>(st.source, kTagFtPlanReq);
      comm.send_vector(st.source, kTagFtPlan, plan);
    }
  };

  if (rank == 0) {
    std::vector<std::uint64_t> ghist = hist;
    std::vector<std::uint8_t> lost(static_cast<std::size_t>(p), 0);
    for (int s = 1; s < p; ++s) {
      double t = params.ft_timeout;
      int tries = 0;
      for (;;) {
        if (comm.rank_failed(s)) {
          lost[s] = 1;
          break;
        }
        try {
          const auto h =
              comm.recv_vector_timeout<std::uint64_t>(s, kTagFtHist, t);
          if (h.size() == ghist.size()) {
            for (std::uint32_t b = 0; b < nbuckets; ++b) ghist[b] += h[b];
          }
          break;
        } catch (const vmpi::TimeoutError&) {
          ++stats.ft_retries;
          if (++tries > params.ft_max_retries) {
            lost[s] = 1;
            break;
          }
          t = std::min(t * 2, params.ft_timeout_cap);
        }
      }
      if (lost[s]) {
        // Silent or dead: its histogram is a deterministic function of its
        // slice, so compute it here instead of waiting any longer.
        ++stats.ranks_recovered;
        auto scope = comm.compute_scope();
        const auto theirs = enumerate_suffixes_range(
            global, slice[s], slice[s + 1], params.gst.min_match);
        for (const Suffix& x : theirs) ++ghist[bucket_of(global, x, w)];
      }
    }
    {
      auto scope = comm.compute_scope();
      // Only ranks believed alive get buckets; a rank wrongly suspected
      // still participates (it follows the plan it eventually receives)
      // and simply owns nothing.
      std::vector<int> cands;
      const int start = (params.exclude_rank0 && p > 1) ? 1 : 0;
      for (int r = start; r < p; ++r)
        if (!lost[r]) cands.push_back(r);
      if (cands.empty())
        throw vmpi::TimeoutError("ft gst: no live ranks to assign buckets");
      const auto idx_owner =
          assign_buckets(ghist, static_cast<int>(cands.size()));
      plan.assign(nbuckets, -1);
      for (std::uint32_t b = 0; b < nbuckets; ++b)
        if (idx_owner[b] >= 0) plan[b] = cands[idx_owner[b]];
    }
    for (int s = 1; s < p; ++s) comm.send_vector(s, kTagFtPlan, plan);
    // ghist survives to the reassignment step below.
    result.bucket_owner = plan;
    hist = std::move(ghist);
  } else {
    comm.send_vector(0, kTagFtHist, hist);
    double t = params.ft_timeout;
    bool got = false;
    for (int tries = 0; tries < kCoordinatorWaitTries && !got; ++tries) {
      try {
        plan = comm.recv_vector_timeout<std::int32_t>(0, kTagFtPlan, t);
        got = true;
      } catch (const vmpi::TimeoutError&) {
        if (comm.rank_failed(0)) throw;  // coordinator death is fatal
        ++stats.ft_retries;
        comm.send_value<int>(0, kTagFtPlanReq, rank);
        t = std::min(t * 2, params.ft_timeout_cap);
      }
    }
    if (!got)
      throw vmpi::TimeoutError("ft gst: no bucket plan from coordinator");
    check_owner_table(plan, nbuckets, p);
    result.bucket_owner = plan;
  }

  // ---- Step 3: point-to-point suffix redistribution. --------------------
  // Send every peer its contribution up front (sends never block), then
  // collect contributions in ascending source order — the concatenation
  // equals the global enumeration order, exactly as the collective path's
  // staged alltoallv guarantees. A silent source's part is recomputed.
  obs::Span redist_span = obs::span(rank, "ft_redistribute", "gst");
  std::vector<std::vector<Suffix>> outgoing(static_cast<std::size_t>(p));
  {
    auto scope = comm.compute_scope();
    for (const Suffix& s : my_suffixes)
      outgoing[plan[bucket_of(global, s, w)]].push_back(s);
    my_suffixes.clear();
    my_suffixes.shrink_to_fit();
  }
  for (int d = 0; d < p; ++d)
    if (d != rank) comm.send_vector(d, kTagFtSuffix, outgoing[d]);

  std::vector<Suffix> local_suffixes;
  for (int s = 0; s < p; ++s) {
    std::vector<Suffix> part;
    if (s == rank) {
      part = std::move(outgoing[s]);
    } else {
      double t = params.ft_timeout;
      int tries = 0;
      bool got = false;
      for (;;) {
        if (comm.rank_failed(s)) break;
        try {
          part = comm.recv_vector_timeout<Suffix>(s, kTagFtSuffix, t);
          got = true;
          break;
        } catch (const vmpi::TimeoutError&) {
          ++stats.ft_retries;
          service_plan_reqs();
          if (++tries > params.ft_max_retries) break;
          t = std::min(t * 2, params.ft_timeout_cap);
        }
      }
      if (!got) {
        ++stats.ranks_recovered;
        auto scope = comm.compute_scope();
        part = slice_contribution(global, slice, s, rank, plan, params);
      }
    }
    local_suffixes.insert(local_suffixes.end(), part.begin(), part.end());
  }
  outgoing.clear();
  {
    auto scope = comm.compute_scope();
    check_received_suffixes(global, local_suffixes, params.gst.min_match);
  }
  stats.local_suffixes = local_suffixes.size();
  redist_span.finish();

  // ---- Steps 4+5: materialize fragments locally, group, build. ----------
  // The fault-tolerant path reads fragment text straight from the global
  // store, which every rank holds whole (the proc transport's children
  // inherit it at fork); the batched fetch protocol would otherwise need
  // its own recovery story for no correctness gain.
  {
    obs::Span sp = obs::span(rank, "ft_build_subtrees", "gst");
    auto scope = comm.compute_scope();
    materialize_from_global(result, global, local_suffixes);
    group_and_build(result, std::move(local_suffixes), params);
    sp.arg("buckets", stats.local_buckets);
  }

  // ---- Step 6: confirm completion; coordinator reassigns stragglers. ----
  std::vector<std::int32_t> final_table;
  if (rank == 0) {
    std::vector<std::uint8_t> done(static_cast<std::size_t>(p), 0);
    // p >= 1 (this branch is rank 0); the guard exists because GCC's
    // -Wnull-dereference cannot prove the vector's data pointer non-null.
    if (!done.empty()) done.front() = 1;
    auto all_done = [&]() {
      for (int s = 1; s < p; ++s)
        if (!done[s] && !comm.rank_failed(s)) return false;
      return true;
    };
    double t = params.ft_timeout;
    int idle = 0;
    while (!all_done() && idle <= params.ft_max_retries) {
      service_plan_reqs();
      try {
        const vmpi::Status st =
            comm.probe_timeout(vmpi::kAnySource, kTagFtDone, t);
        (void)comm.recv_value<int>(st.source, kTagFtDone);
        done[st.source] = 1;
        idle = 0;
        t = params.ft_timeout;
      } catch (const vmpi::TimeoutError&) {
        ++stats.ft_retries;
        ++idle;
        t = std::min(t * 2, params.ft_timeout_cap);
      }
    }

    // Buckets owned by ranks that died or never confirmed move to
    // confirmed survivors (LPT over current loads, heaviest first).
    final_table = plan;
    std::vector<std::uint8_t> keep(static_cast<std::size_t>(p), 0);
    for (int r = 0; r < p; ++r)
      keep[r] = done[r] && !comm.rank_failed(r) ? 1 : 0;
    std::vector<int> confirmed;
    const int start = (params.exclude_rank0 && p > 1) ? 1 : 0;
    for (int r = start; r < p; ++r)
      if (keep[r]) confirmed.push_back(r);
    if (confirmed.empty())
      throw vmpi::TimeoutError("ft gst: every bucket owner was lost");
    {
      auto scope = comm.compute_scope();
      std::vector<int> idx_of(static_cast<std::size_t>(p), -1);
      for (std::size_t i = 0; i < confirmed.size(); ++i)
        idx_of[confirmed[i]] = static_cast<int>(i);
      std::vector<std::uint64_t> load(confirmed.size(), 0);
      std::vector<std::uint32_t> orphans;
      for (std::uint32_t b = 0; b < nbuckets; ++b) {
        const std::int32_t o = final_table[b];
        if (o < 0) continue;
        if (keep[o]) {
          load[idx_of[o]] += hist[b];
        } else {
          orphans.push_back(b);
        }
      }
      std::stable_sort(orphans.begin(), orphans.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return hist[a] > hist[b];
                       });
      for (const std::uint32_t b : orphans) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < load.size(); ++i)
          if (load[i] < load[best]) best = i;
        final_table[b] = confirmed[best];
        load[best] += hist[b];
        ++stats.buckets_reassigned;
      }
    }

    // Distribute the final table and wait for acknowledgements so no
    // survivor is left on the stale plan (its Final may have been
    // dropped; duplicate Done messages double as re-requests).
    for (int s = 1; s < p; ++s)
      if (!comm.rank_failed(s)) comm.send_vector(s, kTagFtFinal, final_table);
    std::vector<std::uint8_t> acked(static_cast<std::size_t>(p), 1);
    for (int s = 1; s < p; ++s) acked[s] = keep[s] ? 0 : 1;
    auto all_acked = [&]() {
      for (int s = 1; s < p; ++s)
        if (!acked[s] && !comm.rank_failed(s)) return false;
      return true;
    };
    double ta = params.ft_timeout;
    int ack_idle = 0;
    while (!all_acked() && ack_idle <= params.ft_max_retries) {
      service_plan_reqs();
      vmpi::Status st;
      while (comm.iprobe(vmpi::kAnySource, kTagFtDone, &st)) {
        (void)comm.recv_value<int>(st.source, kTagFtDone);
        if (!comm.rank_failed(st.source))
          comm.send_vector(st.source, kTagFtFinal, final_table);
      }
      try {
        const vmpi::Status ast =
            comm.probe_timeout(vmpi::kAnySource, kTagFtFinalAck, ta);
        (void)comm.recv_value<int>(ast.source, kTagFtFinalAck);
        acked[ast.source] = 1;
        ack_idle = 0;
        ta = params.ft_timeout;
      } catch (const vmpi::TimeoutError&) {
        ++stats.ft_retries;
        ++ack_idle;
        for (int s = 1; s < p; ++s)
          if (!acked[s] && !comm.rank_failed(s))
            comm.send_vector(s, kTagFtFinal, final_table);
        ta = std::min(ta * 2, params.ft_timeout_cap);
      }
    }
  } else {
    comm.send_value<int>(0, kTagFtDone, rank);
    double t = params.ft_timeout;
    bool got = false;
    for (int tries = 0; tries < kCoordinatorWaitTries && !got; ++tries) {
      try {
        final_table = comm.recv_vector_timeout<std::int32_t>(0, kTagFtFinal, t);
        got = true;
      } catch (const vmpi::TimeoutError&) {
        if (comm.rank_failed(0)) throw;
        ++stats.ft_retries;
        comm.send_value<int>(0, kTagFtDone, rank);
        t = std::min(t * 2, params.ft_timeout_cap);
      }
    }
    // One-table invariant: a survivor that cannot learn the final table
    // must not proceed on the stale plan — a diverged table could leave a
    // bucket unowned (lost pairs). Abort and let the supervisor retry.
    if (!got)
      throw vmpi::TimeoutError("ft gst: no final owner table");
    check_owner_table(final_table, nbuckets, p);
    comm.send_value<int>(0, kTagFtFinalAck, rank);
  }

  // ---- Step 7: adopt the final table; rebuild if our share changed. -----
  if (final_table != plan) {
    bool mine_changed = false;
    for (std::uint32_t b = 0; b < nbuckets && !mine_changed; ++b)
      mine_changed = (plan[b] == rank) != (final_table[b] == rank);
    if (mine_changed) {
      auto scope = comm.compute_scope();
      DistributedGst rebuilt =
          rebuild_rank_portion(global, final_table, rank, params);
      rebuilt.stats.ranks_recovered = stats.ranks_recovered;
      rebuilt.stats.ft_retries = stats.ft_retries;
      rebuilt.stats.buckets_reassigned = stats.buckets_reassigned;
      rebuilt.stats.portion_rebuilt = 1;
      result = std::move(rebuilt);
    } else {
      result.bucket_owner = final_table;
    }
  }

  const auto& ledger_after = comm.ledger();
  stats.compute_seconds =
      ledger_after.compute_seconds - ledger_before.compute_seconds;
  stats.comm_seconds = ledger_after.comm_seconds - ledger_before.comm_seconds;
  stats.bytes_sent = ledger_after.bytes_sent - ledger_before.bytes_sent;
  publish_gst_obs(rank, stats);
  return result;
}

}  // namespace

}  // namespace pgasm::gst
