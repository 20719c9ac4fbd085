#include "core/wire.hpp"

#include <array>
#include <cstdio>

#include <unistd.h>  // fsync — durable rename needs the data on disk first

namespace pgasm::core {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x4b434750;  // "PGCK"
constexpr std::uint32_t kCheckpointVersion = 2;  // v2: input/params hashes

constexpr std::uint32_t kManifestMagic = 0x464d4750;  // "PGMF"
constexpr std::uint32_t kManifestVersion = 1;

constexpr std::uint32_t kGstCheckpointMagic = 0x54474750;  // "PGGT"
constexpr std::uint32_t kGstCheckpointVersion = 1;

// CRC-32 lookup table (IEEE 802.3 reflected polynomial), built once at
// compile time so crc32 itself is allocation- and lock-free.
constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

using util::append_pod;
using util::append_vec;
using util::Cursor;

/// Read a file payload's [u32 magic][u32 version] header.
void expect_header(Cursor& cur, std::uint32_t magic, std::uint32_t version,
                   const char* what) {
  std::uint32_t got = 0;
  if (cur.read(got, what) && got != magic) cur.fail(WireErrc::kBadMagic, what);
  if (cur.read(got, what) && got != version) {
    cur.fail(WireErrc::kBadVersion, what);
  }
}

}  // namespace

std::vector<std::byte> encode_report(const WorkerReport& r) {
  std::vector<std::byte> out;
  out.reserve(22 + r.results.size() * sizeof(ResultMsg) +
              r.new_pairs.size() * sizeof(PairMsg) +
              r.progress.size() * sizeof(RoleProgress));
  append_pod(out, kWireKindReport, r.seq);
  append_vec(out, r.results);
  append_vec(out, r.new_pairs);
  append_vec(out, r.progress);
  append_pod(out, r.exhausted);
  return out;
}

WireResult<WorkerReport> try_decode_report(std::span<const std::byte> bytes) {
  Cursor cur(bytes);
  WorkerReport r;
  cur.expect_tag(kWireKindReport, "report kind tag");
  cur.read(r.seq, "report seq");
  cur.read_vec(r.results, "report results");
  cur.read_vec(r.new_pairs, "report new_pairs");
  cur.read_vec(r.progress, "report progress");
  cur.read(r.exhausted, "report exhausted flag");
  if (!cur.expect_end("report trailing bytes")) return cur.error();
  return r;
}

std::vector<std::byte> encode_reply(const MasterReply& r) {
  std::vector<std::byte> out;
  out.reserve(23 + r.batch.size() * sizeof(PairMsg) +
              r.takeovers.size() * sizeof(TakeoverOrder));
  append_pod(out, kWireKindReply, r.seq);
  append_vec(out, r.batch);
  append_vec(out, r.takeovers);
  append_pod(out, r.request_r, r.terminate, r.park);
  return out;
}

WireResult<MasterReply> try_decode_reply(std::span<const std::byte> bytes) {
  Cursor cur(bytes);
  MasterReply r;
  cur.expect_tag(kWireKindReply, "reply kind tag");
  cur.read(r.seq, "reply seq");
  cur.read_vec(r.batch, "reply batch");
  cur.read_vec(r.takeovers, "reply takeovers");
  cur.read(r.request_r, "reply request_r");
  cur.read(r.terminate, "reply terminate flag");
  cur.read(r.park, "reply park flag");
  if (!cur.expect_end("reply trailing bytes")) return cur.error();
  return r;
}

std::vector<std::uint8_t> encode_checkpoint(const ClusterCheckpoint& c) {
  std::vector<std::uint8_t> out;
  out.reserve(64 + c.labels.size() * 4 + c.pending.size() * sizeof(PairMsg) +
              c.progress.size() * sizeof(RoleProgress));
  append_pod(out, kCheckpointMagic, kCheckpointVersion, c.epoch, c.num_ranks,
             c.n_fragments, c.input_hash, c.params_hash);
  append_vec(out, c.labels);
  append_vec(out, c.pending);
  append_vec(out, c.progress);
  append_pod(out, c.pairs_generated, c.pairs_selected, c.pairs_aligned,
             c.pairs_accepted, c.merges, c.merges_rejected_inconsistent);
  return out;
}

WireResult<ClusterCheckpoint> try_decode_checkpoint(
    std::span<const std::uint8_t> bytes) {
  Cursor cur(bytes);
  expect_header(cur, kCheckpointMagic, kCheckpointVersion, "checkpoint header");
  ClusterCheckpoint c;
  cur.read(c.epoch, "checkpoint epoch");
  cur.read(c.num_ranks, "checkpoint num_ranks");
  cur.read(c.n_fragments, "checkpoint n_fragments");
  cur.read(c.input_hash, "checkpoint input_hash");
  cur.read(c.params_hash, "checkpoint params_hash");
  cur.read_vec(c.labels, "checkpoint labels");
  cur.read_vec(c.pending, "checkpoint pending");
  cur.read_vec(c.progress, "checkpoint progress");
  cur.read_each("checkpoint counters", c.pairs_generated, c.pairs_selected,
                c.pairs_aligned, c.pairs_accepted, c.merges,
                c.merges_rejected_inconsistent);
  if (!cur.expect_end("checkpoint trailing bytes")) return cur.error();
  // Semantic validation: restore indexes `first[label]` over n_fragments
  // slots, so a label count or value out of range would corrupt memory long
  // after the decode "succeeded". Reject it here, as a typed error.
  if (c.labels.size() != c.n_fragments) {
    return WireError{WireErrc::kCountMismatch, cur.offset(),
                     "checkpoint label count != n_fragments"};
  }
  for (const std::uint32_t l : c.labels) {
    if (l >= c.n_fragments) {
      return WireError{WireErrc::kBadValue, cur.offset(),
                       "checkpoint label out of range"};
    }
  }
  return c;
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    c = kCrc32Table[(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void save_frame_atomic(const std::string& path,
                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame;
  frame.reserve(5 + payload.size());
  append_pod(frame, kFrameVersion, crc32(payload));
  util::append_run(frame, payload);

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) throw std::runtime_error("frame: cannot open " + tmp);
  const std::size_t written = std::fwrite(frame.data(), 1, frame.size(), f);
  const bool flushed = std::fflush(f) == 0;
  // A rename is only atomic-durable if the temp file's data already hit the
  // disk; otherwise a crash can leave the final name pointing at garbage.
  const bool synced = flushed && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (written != frame.size() || !synced) {
    std::remove(tmp.c_str());
    throw std::runtime_error("frame: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("frame: rename failed for " + path);
  }
}

WireResult<std::vector<std::uint8_t>> try_load_frame(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return WireError{WireErrc::kIo, 0, "frame file unreadable"};
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
    bytes.insert(bytes.end(), buf, buf + n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    return WireError{WireErrc::kIo, bytes.size(), "frame read error"};
  }
  Cursor cur(bytes);
  std::uint8_t version = 0;
  std::uint32_t want = 0;
  if (!cur.read_each("frame header", version, want)) return cur.error();
  if (version != kFrameVersion) {
    return WireError{WireErrc::kBadVersion, 0, "frame version"};
  }
  std::vector<std::uint8_t> payload;
  cur.read_run(payload, bytes.size() - cur.offset(), "frame payload");
  if (crc32(std::span<const std::uint8_t>(payload)) != want) {
    return WireError{WireErrc::kBadCrc, 5, "frame payload checksum"};
  }
  return payload;
}

void save_checkpoint(const std::string& path, const ClusterCheckpoint& c) {
  const auto bytes = encode_checkpoint(c);
  save_frame_atomic(path, std::span<const std::uint8_t>(bytes));
}

WireResult<ClusterCheckpoint> try_load_checkpoint(const std::string& path) {
  auto frame = try_load_frame(path);
  if (!frame) return frame.error();
  const auto payload = std::move(frame).take_or_throw();
  return try_decode_checkpoint(std::span<const std::uint8_t>(payload));
}

std::vector<std::uint8_t> encode_manifest(const RunManifest& m) {
  std::vector<std::uint8_t> out;
  out.reserve(36 + m.phases.size() * sizeof(PhaseEntry));
  append_pod(out, kManifestMagic, kManifestVersion, m.generation,
             m.input_hash, m.params_hash);
  append_vec(out, m.phases);
  return out;
}

WireResult<RunManifest> try_decode_manifest(
    std::span<const std::uint8_t> bytes) {
  Cursor cur(bytes);
  expect_header(cur, kManifestMagic, kManifestVersion, "manifest header");
  RunManifest m;
  cur.read(m.generation, "manifest generation");
  cur.read(m.input_hash, "manifest input_hash");
  cur.read(m.params_hash, "manifest params_hash");
  cur.read_vec(m.phases, "manifest phases");
  if (!cur.expect_end("manifest trailing bytes")) return cur.error();
  // A phase listed twice would make resume state ambiguous; the supervisor
  // never writes one, so treat it as corruption.
  std::uint64_t seen = 0;
  for (const PhaseEntry& e : m.phases) {
    if (e.phase >= 64 || (seen & (std::uint64_t{1} << e.phase)) != 0) {
      return WireError{WireErrc::kBadValue, cur.offset(),
                       "manifest duplicate or out-of-range phase id"};
    }
    seen |= std::uint64_t{1} << e.phase;
  }
  return m;
}

void save_manifest(const std::string& path, const RunManifest& m) {
  const auto bytes = encode_manifest(m);
  save_frame_atomic(path, std::span<const std::uint8_t>(bytes));
}

WireResult<RunManifest> try_load_manifest(const std::string& path) {
  auto frame = try_load_frame(path);
  if (!frame) return frame.error();
  const auto payload = std::move(frame).take_or_throw();
  return try_decode_manifest(std::span<const std::uint8_t>(payload));
}

std::vector<std::uint8_t> encode_assemblies(
    const std::vector<ClusterAssembly>& records) {
  std::vector<std::uint8_t> out;
  append_pod(out, kWireKindAssemblies,
             static_cast<std::uint32_t>(records.size()));
  for (const ClusterAssembly& rec : records) {
    const olc::AssemblyResult& ar = rec.result;
    append_pod(out, rec.cluster, static_cast<std::uint32_t>(ar.contigs.size()),
               ar.stats.overlaps_considered, ar.stats.overlaps_accepted,
               ar.stats.layout_conflicts, ar.stats.overlaps_aligned);
    for (const olc::Contig& contig : ar.contigs) {
      append_pod(out, static_cast<std::uint64_t>(contig.consensus.size()));
      util::append_run(out, contig.consensus);
      append_pod(out, static_cast<std::uint32_t>(contig.layout.size()));
      for (const olc::Placement& pl : contig.layout) {
        append_pod(out, pl.fragment, static_cast<std::uint8_t>(pl.flip ? 1 : 0),
                   pl.offset, pl.length);
      }
    }
  }
  return out;
}

WireResult<std::vector<ClusterAssembly>> try_decode_assemblies(
    std::span<const std::uint8_t> bytes) {
  // Smallest encodings, for checking counts before allocating.
  constexpr std::uint64_t kMinRecord = 4 + 4 + 4 * 8;
  constexpr std::uint64_t kMinContig = 8 + 4;
  constexpr std::uint64_t kPlacement = 4 + 1 + 8 + 4;
  Cursor cur(bytes);
  std::vector<ClusterAssembly> records;
  std::uint32_t n_records = 0;
  cur.expect_tag(kWireKindAssemblies, "assemblies tag");
  cur.read(n_records, "assemblies record count");
  if (cur.fits(n_records, kMinRecord, "assemblies records")) {
    records.resize(n_records);
  }
  for (ClusterAssembly& rec : records) {
    olc::AssemblyResult& ar = rec.result;
    std::uint32_t n_contigs = 0;
    cur.read(rec.cluster, "assembly cluster");
    cur.read(n_contigs, "assembly contig count");
    cur.read_each("assembly stats", ar.stats.overlaps_considered,
                  ar.stats.overlaps_accepted, ar.stats.layout_conflicts,
                  ar.stats.overlaps_aligned);
    if (!cur.fits(n_contigs, kMinContig, "assembly contigs")) break;
    ar.contigs.resize(n_contigs);
    for (olc::Contig& contig : ar.contigs) {
      std::uint64_t len = 0;
      std::uint32_t n_layout = 0;
      cur.read(len, "contig length");
      cur.read_run(contig.consensus, len, "contig consensus");
      for (const seq::Code c : contig.consensus) {
        if (c > seq::kMask) {
          cur.fail(WireErrc::kBadValue, "contig consensus code out of range");
        }
      }
      cur.read(n_layout, "contig layout count");
      if (!cur.fits(n_layout, kPlacement, "contig layout")) break;
      contig.layout.resize(n_layout);
      for (olc::Placement& pl : contig.layout) {
        std::uint8_t flip = 0;
        cur.read(pl.fragment, "placement fragment");
        cur.read(flip, "placement flip");
        cur.read(pl.offset, "placement offset");
        cur.read(pl.length, "placement length");
        if (flip > 1) cur.fail(WireErrc::kBadValue, "placement flip not 0/1");
        pl.flip = flip != 0;
      }
    }
    if (!cur.ok()) break;
  }
  if (!cur.expect_end("assemblies trailing bytes")) return cur.error();
  return records;
}

std::vector<std::uint8_t> encode_gst_checkpoint(const GstCheckpoint& c) {
  std::vector<std::uint8_t> out;
  out.reserve(40 + c.bucket_owner.size() * 4 + c.role_done.size());
  append_pod(out, kGstCheckpointMagic, kGstCheckpointVersion, c.input_hash,
             c.params_hash, c.num_ranks, c.prefix_w);
  append_vec(out, c.bucket_owner);
  append_vec(out, c.role_done);
  return out;
}

WireResult<GstCheckpoint> try_decode_gst_checkpoint(
    std::span<const std::uint8_t> bytes) {
  Cursor cur(bytes);
  expect_header(cur, kGstCheckpointMagic, kGstCheckpointVersion,
                "gst checkpoint header");
  GstCheckpoint c;
  cur.read(c.input_hash, "gst checkpoint input_hash");
  cur.read(c.params_hash, "gst checkpoint params_hash");
  cur.read(c.num_ranks, "gst checkpoint num_ranks");
  cur.read(c.prefix_w, "gst checkpoint prefix_w");
  cur.read_vec(c.bucket_owner, "gst checkpoint bucket_owner");
  cur.read_vec(c.role_done, "gst checkpoint role_done");
  if (!cur.expect_end("gst checkpoint trailing bytes")) return cur.error();
  // Resume rebuilds each rank's portion straight from this table; a wrong
  // size or out-of-range owner would index past the bucket array or spawn
  // a role that does not exist.
  if (c.prefix_w < 1 || c.prefix_w > 12) {
    return WireError{WireErrc::kBadValue, cur.offset(),
                     "gst checkpoint prefix_w out of range"};
  }
  if (c.bucket_owner.size() !=
      (std::size_t{1} << (2 * c.prefix_w))) {
    return WireError{WireErrc::kCountMismatch, cur.offset(),
                     "gst checkpoint bucket_owner count != 4^prefix_w"};
  }
  for (const std::int32_t o : c.bucket_owner) {
    if (o < -1 || o >= static_cast<std::int32_t>(c.num_ranks)) {
      return WireError{WireErrc::kBadValue, cur.offset(),
                       "gst checkpoint bucket owner out of range"};
    }
  }
  if (c.role_done.size() != c.num_ranks) {
    return WireError{WireErrc::kCountMismatch, cur.offset(),
                     "gst checkpoint role_done count != num_ranks"};
  }
  return c;
}

void save_gst_checkpoint(const std::string& path, const GstCheckpoint& c) {
  const auto bytes = encode_gst_checkpoint(c);
  save_frame_atomic(path, std::span<const std::uint8_t>(bytes));
}

WireResult<GstCheckpoint> try_load_gst_checkpoint(const std::string& path) {
  auto frame = try_load_frame(path);
  if (!frame) return frame.error();
  const auto payload = std::move(frame).take_or_throw();
  return try_decode_gst_checkpoint(std::span<const std::uint8_t>(payload));
}

}  // namespace pgasm::core
