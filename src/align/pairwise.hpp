// Shared alignment types: scoring, the traceback op string, and the result
// record the overlap kernels (align/overlap.hpp) fill in.
//
// The paper detects overlaps "by computing alignments between the
// corresponding pairs of fragments using standard dynamic programming
// approaches"; the only alignment it needs is the suffix–prefix overlap
// test, so these types describe linear-gap end-free alignments over the
// code alphabet (masked symbols are guaranteed mismatches).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "seq/alphabet.hpp"

namespace pgasm::align {

using seq::Code;
using Seq = std::span<const Code>;

/// Scoring parameters: linear gaps, masked symbols never match. The
/// affine costs gap_open/gap_extend are read by no kernel; they stay part
/// of core::cluster_params_hash, so existing checkpoints keep their
/// identity.
struct Scoring {
  int match = 2;
  int mismatch = -3;
  int gap = -4;
  int gap_open = -5;
  int gap_extend = -2;

  int substitution(Code a, Code b) const noexcept {
    return (seq::is_base(a) && a == b) ? match : mismatch;
  }
};

/// Edit operations of a traceback, from the start of the aligned region.
enum class Op : std::uint8_t { kMatch, kMismatch, kInsertA, kInsertB };
// kInsertA: column consumes a character of `a` only (gap in b);
// kInsertB: column consumes a character of `b` only (gap in a).

struct AlignResult {
  int score = 0;
  /// Aligned (DP-traced) region, half-open, in each sequence.
  std::uint32_t a_begin = 0, a_end = 0;
  std::uint32_t b_begin = 0, b_end = 0;
  std::uint32_t matches = 0;   ///< identical columns
  std::uint32_t columns = 0;   ///< total alignment columns
  std::vector<Op> ops;         ///< filled when requested

  double identity() const noexcept {
    return columns == 0 ? 0.0
                        : static_cast<double>(matches) /
                              static_cast<double>(columns);
  }
  std::uint32_t a_span() const noexcept { return a_end - a_begin; }
  std::uint32_t b_span() const noexcept { return b_end - b_begin; }
};

struct AlignOptions {
  bool keep_ops = false;  ///< retain the op string in the result
};

}  // namespace pgasm::align
