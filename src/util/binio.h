// Shared binary codec for the trace (MCTRACE1/2) and checkpoint (MCCKPT1)
// file formats: LEB128 varints, ZigZag, fixed-width u64/f64, id lists and
// an FNV-1a trailer. The byte layouts are frozen — golden traces and
// pinned checkpoint hashes are compared every build, so any change here
// is a format break.
//
// Each format is described once, as a walk: a function that visits every
// field in file order through a `Walker`. The same walk writes the format
// (the walker appends each visited field to a buffer) and reads it (the
// walker assigns each field from a buffer, checked).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "util/check.h"

namespace manetcap::util::binio {

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// ZigZag so signed deltas encode compactly even when negative — the
/// codec carries any delta; semantic constraints (e.g. slot monotonicity)
/// are the consumer's to judge.
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

inline std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

inline void put_u64_fixed(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64_fixed(out, std::bit_cast<std::uint64_t>(v));
}

/// A cursor that runs a walk in one of two modes. Writing, every visit
/// appends the field's bytes to the output buffer and only reads the
/// field, so a walk may run over a const object. Reading, every visit
/// assigns the field from bytes[pos, end) — `end` is exclusive, a checksum
/// trailer lives beyond it — and fails with a CheckError prefixed by
/// `label` on truncation, varint overflow, a 32-bit field out of range or
/// a count the bytes left cannot hold.
class Walker {
 public:
  explicit Walker(std::vector<std::uint8_t>& out) : out_(&out) {}
  Walker(const std::vector<std::uint8_t>& in, std::size_t pos,
         std::size_t end, const char* label)
      : in_(&in), pos_(pos), end_(end), label_(label) {}

  bool reading() const { return in_ != nullptr; }
  const char* label() const { return label_; }
  std::size_t pos() const { return pos_; }
  bool at_end() const { return pos_ == end_; }

  void u8(std::uint8_t& v) {
    if (!reading()) return out_->push_back(v);
    MANETCAP_CHECK_MSG(pos_ < end_, label_ << ": truncated buffer");
    v = (*in_)[pos_++];
  }

  /// One byte, 1 or 0; reading takes any nonzero byte as true.
  void flag(bool& v) {
    std::uint8_t b = v ? 1 : 0;
    u8(b);
    if (reading()) v = b != 0;
  }

  /// A one-byte enum (or small code); reading rejects a value above
  /// `max` with "<label>: <invalid>".
  template <class E>
  void u8_enum(E& v, std::uint8_t max, const char* invalid) {
    std::uint8_t b = static_cast<std::uint8_t>(v);
    u8(b);
    if (!reading()) return;
    MANETCAP_CHECK_MSG(b <= max, label_ << ": " << invalid);
    v = static_cast<E>(b);
  }

  void varint(std::uint64_t& v) {
    if (!reading()) return put_varint(*out_, v);
    std::uint64_t x = 0;
    for (int shift = 0;; shift += 7) {
      MANETCAP_CHECK_MSG(pos_ < end_, label_ << ": truncated varint");
      const std::uint8_t b = (*in_)[pos_++];
      MANETCAP_CHECK_MSG(shift < 64, label_ << ": varint overflow");
      x |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) break;
    }
    v = x;
  }

  /// A varint that must fit in 32 bits.
  void u32(std::uint32_t& v) {
    std::uint64_t x = v;
    varint(x);
    if (!reading()) return;
    MANETCAP_CHECK_MSG(x <= 0xffffffffULL,
                       label_ << ": field exceeds 32 bits");
    v = static_cast<std::uint32_t>(x);
  }

  /// Eight bytes, little-endian.
  void fixed(std::uint64_t& v) { fixed_bits(v, "u64"); }

  void f64(double& v) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    fixed_bits(bits, "f64");
    if (reading()) v = std::bit_cast<double>(bits);
  }

  /// Any {double x, y} pair (geom::Point, geom::Vec2).
  template <class V>
  void xy(V& p) {
    f64(p.x);
    f64(p.y);
  }

  /// A generator's raw state words (anything with state()/set_state()).
  template <class G>
  void rng(G& g) {
    auto s = g.state();
    for (std::uint64_t& w : s) fixed(w);
    if (reading()) g.set_state(s);
  }

  /// A container's element count. Reading checks it against the bytes
  /// left before resizing `v`: each element encodes to at least
  /// `min_bytes_each` bytes, so a count the buffer cannot hold is a named
  /// error instead of an out-of-memory-sized allocation.
  template <class C>
  void count(C& v, std::size_t min_bytes_each, const char* what) {
    std::uint64_t n = v.size();
    varint(n);
    if (!reading()) return;
    MANETCAP_CHECK_MSG(n <= (end_ - pos_) / min_bytes_each,
                       label_ << ": " << what << " count " << n
                              << " exceeds the " << (end_ - pos_)
                              << " bytes left");
    v.resize(n);
  }

  void id_list(std::vector<std::uint32_t>& v) {
    count(v, 1, "id list");
    for (std::uint32_t& x : v) u32(x);
  }

  void id_lists(std::vector<std::vector<std::uint32_t>>& vs) {
    count(vs, 1, "id table");
    for (auto& v : vs) id_list(v);
  }

  /// A value the reader must already hold (a config echo): writing stores
  /// `expected` through `visit`; reading loads the stored value and, when
  /// `binding`, fails with `mismatch` unless it equals `expected`.
  template <class T>
  void echo(std::type_identity_t<T> expected, void (Walker::*visit)(T&),
            const char* mismatch, bool binding = true) {
    T stored = expected;
    (this->*visit)(stored);
    MANETCAP_CHECK_MSG(!reading() || !binding || stored == expected,
                       mismatch);
  }

 private:
  void fixed_bits(std::uint64_t& v, const char* type) {
    if (!reading()) return put_u64_fixed(*out_, v);
    MANETCAP_CHECK_MSG(end_ - pos_ >= 8, label_ << ": truncated " << type);
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i)
      x |= static_cast<std::uint64_t>((*in_)[pos_ + i]) << (8 * i);
    pos_ += 8;
    v = x;
  }

  std::vector<std::uint8_t>* out_ = nullptr;
  const std::vector<std::uint8_t>* in_ = nullptr;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  const char* label_ = "binio";
};

/// Appends the FNV-1a trailer over everything in `out`.
inline void seal(std::vector<std::uint8_t>& out) {
  put_u64_fixed(out, fnv1a(out.data(), out.size()));
}

/// True when the last 8 bytes of `bytes` (at least 8 long) are the FNV-1a
/// of the rest.
inline bool sealed(const std::vector<std::uint8_t>& bytes) {
  const std::size_t body = bytes.size() - 8;
  std::uint64_t trailer = 0;
  Walker(bytes, body, bytes.size(), "binio").fixed(trailer);
  return trailer == fnv1a(bytes.data(), body);
}

/// Whole-file I/O for the framers; errors read
/// "<label>: cannot open for read|write: <path>" and
/// "<label>: read|write failed: <path>".
std::vector<std::uint8_t> read_file(const std::string& path,
                                    const char* label);
void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes, const char* label);

}  // namespace manetcap::util::binio
