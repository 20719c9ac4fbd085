// Compile-time checks over the declarative protocol tables
// (core/cluster_protocol.hpp, gst/gst_protocol.hpp). Each protocol header
// static_asserts them beside its tables, so a broken table fails the build
// of the library that declares it. The checks that read source text (do
// the named codecs and handlers exist, does every state have its marker in
// the pump) live in pgasm-lint W001; the composed master x worker x channel
// properties live in tools/verify/pgasm-model.
#pragma once

#include <cstddef>

namespace pgasm::util::protocol {

/// A table cell that says something: non-null and non-empty.
constexpr bool filled(const char* cell) noexcept {
  return cell != nullptr && *cell != '\0';
}

constexpr bool same_text(const char* a, const char* b) noexcept {
  for (; *a != '\0' && *a == *b; ++a, ++b) {
  }
  return *a == *b;
}

/// Every kind in `kinds` has exactly one row of `table`, and the table has
/// no other row.
template <typename Kind, std::size_t NK, typename Row, std::size_t NR>
constexpr bool one_row_per_kind(const Kind (&kinds)[NK],
                                const Row (&table)[NR]) noexcept {
  for (const Kind kind : kinds) {
    std::size_t rows = 0;
    for (const Row& row : table) rows += row.kind == kind ? 1 : 0;
    if (rows != 1) return false;
  }
  return NK == NR;
}

/// Every message row declares its direction, codec pair, handler, drop
/// recovery and duplicate defence.
template <typename Row, std::size_t NR>
constexpr bool no_empty_cell(const Row (&table)[NR]) noexcept {
  for (const Row& row : table) {
    if (!filled(row.direction) || !filled(row.encoder) ||
        !filled(row.decoder) || !filled(row.handler) ||
        !filled(row.on_drop) || !filled(row.on_duplicate)) {
      return false;
    }
  }
  return true;
}

/// Position of `s` in `states`. A state missing from `states` yields N,
/// and indexing with it makes the calling constant expression ill-formed.
template <typename State, std::size_t N>
constexpr std::size_t index_of(const State (&states)[N], State s) noexcept {
  std::size_t i = 0;
  while (i < N && states[i] != s) ++i;
  return i;
}

/// `terminal` is reachable from every state along `edges` (no livelock by
/// construction). A fixed point of backward reachability, N passes.
template <typename State, std::size_t N, typename Edge, std::size_t NE>
constexpr bool terminal_reachable_from_all(const State (&states)[N],
                                           const Edge (&edges)[NE],
                                           State terminal) noexcept {
  bool reaches[N] = {};
  reaches[index_of(states, terminal)] = true;
  for (std::size_t pass = 0; pass < N; ++pass) {
    for (const Edge& e : edges) {
      if (reaches[index_of(states, e.to)]) {
        reaches[index_of(states, e.from)] = true;
      }
    }
  }
  for (const bool r : reaches) {
    if (!r) return false;
  }
  return true;
}

/// `terminal` has no outgoing edge, and every other state has at least one
/// (the machine cannot wedge anywhere else).
template <typename State, std::size_t N, typename Edge, std::size_t NE>
constexpr bool only_terminal_is_a_sink(const State (&states)[N],
                                       const Edge (&edges)[NE],
                                       State terminal) noexcept {
  for (const State s : states) {
    std::size_t out = 0;
    for (const Edge& e : edges) out += e.from == s ? 1 : 0;
    if ((out == 0) != (s == terminal)) return false;
  }
  return true;
}

/// Every state except `start` is entered by some edge (no dead state).
template <typename State, std::size_t N, typename Edge, std::size_t NE>
constexpr bool every_state_entered(const State (&states)[N],
                                   const Edge (&edges)[NE],
                                   State start) noexcept {
  for (const State s : states) {
    bool entered = s == start;
    for (const Edge& e : edges) entered = entered || e.to == s;
    if (!entered) return false;
  }
  return true;
}

/// Every edge documents the condition that takes it.
template <typename Edge, std::size_t NE>
constexpr bool every_edge_documented(const Edge (&edges)[NE]) noexcept {
  for (const Edge& e : edges) {
    if (!filled(e.on)) return false;
  }
  return true;
}

}  // namespace pgasm::util::protocol
