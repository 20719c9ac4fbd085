// The one byte codec for every payload that crosses a rank or disk
// boundary: cluster reports and replies, checkpoints, manifests, the
// assembly gather, GST fragment fetches, olc team payloads and the proc
// transport's exit blobs (DESIGN.md section 10).
//
// Writers append little-endian-as-stored POD fields to any contiguous byte
// container (std::vector<std::uint8_t>, std::vector<std::byte>,
// std::string). The reader, Cursor, is bounds-checked and total: every read
// either succeeds or latches a typed WireError, after which every read is a
// no-op, so a decoder is straight-line code with one failure check at the
// end. Bytes from another rank or from disk are hostile until a Cursor has
// accepted them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <ranges>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace pgasm::util {

// --- Typed decode errors ----------------------------------------------------

enum class WireErrc : std::uint8_t {
  kTruncated = 1,   ///< payload ends before a field or element run
  kOversized,       ///< trailing bytes after a complete message
  kBadTag,          ///< leading message-kind tag is not the expected one
  kBadMagic,        ///< file payload does not start with its magic
  kBadVersion,      ///< format version not understood
  kCountMismatch,   ///< declared element count contradicts another field
  kBadValue,        ///< a decoded field is outside its legal domain
  kBadCrc,          ///< file frame CRC32 does not match the payload
  kIo,              ///< file missing/unreadable (try_load_* only)
};

/// Stable lowercase name for an error code ("truncated", "bad_tag", ...).
inline const char* wire_errc_name(WireErrc code) noexcept {
  switch (code) {
    case WireErrc::kTruncated: return "truncated";
    case WireErrc::kOversized: return "oversized";
    case WireErrc::kBadTag: return "bad_tag";
    case WireErrc::kBadMagic: return "bad_magic";
    case WireErrc::kBadVersion: return "bad_version";
    case WireErrc::kCountMismatch: return "count_mismatch";
    case WireErrc::kBadValue: return "bad_value";
    case WireErrc::kBadCrc: return "bad_crc";
    case WireErrc::kIo: return "io";
  }
  return "unknown";
}

struct WireError {
  WireErrc code = WireErrc::kTruncated;
  std::size_t offset = 0;   ///< byte offset at which decoding failed
  const char* detail = "";  ///< static description of the failed check

  /// "wire: truncated at offset 12 (report results)" — for logs/exceptions.
  std::string message() const {
    std::string out = "wire: ";
    out += wire_errc_name(code);
    out += " at offset ";
    out += std::to_string(offset);
    if (detail != nullptr && detail[0] != '\0') {
      out += " (";
      out += detail;
      out += ")";
    }
    return out;
  }
};

/// A rejected payload, raised where a decode failure cannot be dropped and
/// must end the rank (WireResult::take_or_throw, the GST fetch, the olc team
/// payloads). Carries the structured error so catch sites can still branch
/// on the code.
class WireFormatError : public std::runtime_error {
 public:
  explicit WireFormatError(const WireError& e)
      : std::runtime_error(e.message()), error_(e) {}
  const WireError& error() const noexcept { return error_; }

 private:
  WireError error_;
};

/// Minimal std::expected-style carrier for decode results (the toolchain is
/// C++20; std::expected arrives in C++23). Holds either the decoded value
/// or a WireError, never both.
template <typename T>
class [[nodiscard]] WireResult {
 public:
  WireResult(T value) : value_(std::move(value)) {}  // NOLINT(*-explicit-*)
  WireResult(WireError error) : error_(error) {}     // NOLINT(*-explicit-*)

  explicit operator bool() const noexcept { return value_.has_value(); }
  bool has_value() const noexcept { return value_.has_value(); }

  T& value() & { return *value_; }
  const T& value() const& { return *value_; }
  T&& value() && { return *std::move(value_); }

  const WireError& error() const noexcept { return error_; }

  /// Unwrap, raising WireFormatError when this holds an error.
  T take_or_throw() && {
    if (!value_.has_value()) throw WireFormatError(error_);
    return *std::move(value_);
  }

 private:
  std::optional<T> value_;
  WireError error_{};
};

// --- Writers ----------------------------------------------------------------

/// Append each trivially copyable value's bytes, in argument order.
template <typename Out, typename... T>
void append_pod(Out& out, const T&... v) {
  static_assert((std::is_trivially_copyable_v<T> && ...));
  const std::size_t base = out.size();
  out.resize(base + (sizeof(T) + ...));
  auto* at = out.data() + base;
  ((std::memcpy(at, &v, sizeof(T)), at += sizeof(T)), ...);
}

/// Append a contiguous run of trivially copyable elements, uncounted: the
/// reader must know the element count some other way.
template <typename Out, typename Run>
void append_run(Out& out, const Run& v) {
  using T = std::ranges::range_value_t<Run>;
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t n = std::size(v) * sizeof(T);
  const std::size_t base = out.size();
  out.resize(base + n);
  if (n != 0) std::memcpy(out.data() + base, std::data(v), n);
}

/// Append [u32 count][elements]: the form Cursor::read_vec reads back.
template <typename Out, typename Run>
void append_vec(Out& out, const Run& v) {
  append_pod(out, static_cast<std::uint32_t>(std::size(v)));
  append_run(out, v);
}

// --- Reader -----------------------------------------------------------------

/// Bounds-checked reader over a received payload of any one-byte element
/// type. Never reads past the end and never allocates more than the bytes
/// left could fill: counts are checked before anything is sized by them.
class Cursor {
 public:
  template <typename Bytes>
  explicit Cursor(const Bytes& in)
      : in_(reinterpret_cast<const std::byte*>(std::data(in)), std::size(in)) {
    static_assert(sizeof(*std::data(in)) == 1, "Cursor reads byte buffers");
  }

  bool ok() const noexcept { return !failed_; }
  const WireError& error() const noexcept { return err_; }
  std::size_t offset() const noexcept { return off_; }

  /// Latch the first failure at the current offset; always returns false.
  bool fail(WireErrc code, const char* detail) noexcept {
    if (!failed_) {
      failed_ = true;
      err_ = WireError{code, off_, detail};
    }
    return false;
  }

  template <typename T>
  bool read(T& v, const char* what) noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    if (failed_) return false;
    if (sizeof(T) > in_.size() - off_) {
      return fail(WireErrc::kTruncated, what);
    }
    std::memcpy(&v, in_.data() + off_, sizeof(T));
    off_ += sizeof(T);
    return true;
  }

  /// Read several fields in order; `what` names them all in an error.
  template <typename... T>
  bool read_each(const char* what, T&... v) noexcept {
    return (read(v, what) && ...);
  }

  /// Read [u32 count][elements] into a vector or string.
  template <typename Run>
  bool read_vec(Run& v, const char* what) {
    std::uint32_t n = 0;
    return read(n, what) && read_run(v, n, what);
  }

  /// Read a run of `n` elements whose count was decoded separately. The
  /// run is checked against the remaining bytes BEFORE allocating: a
  /// corrupt count must produce a typed error, not a multi-gigabyte resize.
  template <typename Run>
  bool read_run(Run& v, std::uint64_t n, const char* what) {
    using T = std::ranges::range_value_t<Run>;
    static_assert(std::is_trivially_copyable_v<T>);
    if (!fits(n, sizeof(T), what)) return false;
    v.resize(static_cast<std::size_t>(n));
    if (n != 0) std::memcpy(v.data(), in_.data() + off_, v.size() * sizeof(T));
    off_ += v.size() * sizeof(T);
    return true;
  }

  /// Can `count` records of at least `each` bytes still follow? Lets a
  /// decoder bound a count before it allocates for the records.
  bool fits(std::uint64_t count, std::uint64_t each, const char* what) {
    if (failed_) return false;
    if (count > (in_.size() - off_) / each) {
      return fail(WireErrc::kTruncated, what);
    }
    return true;
  }

  bool expect_tag(std::uint8_t want, const char* what) noexcept {
    std::uint8_t got = 0;
    if (!read(got, what)) return false;
    if (got != want) {
      // Report the tag's own offset, not the post-read position.
      --off_;
      return fail(WireErrc::kBadTag, what);
    }
    return true;
  }

  bool expect_end(const char* what) noexcept {
    if (failed_) return false;
    if (off_ != in_.size()) return fail(WireErrc::kOversized, what);
    return true;
  }

 private:
  std::span<const std::byte> in_;
  std::size_t off_ = 0;
  bool failed_ = false;
  WireError err_{};
};

}  // namespace pgasm::util
