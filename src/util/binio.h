// Shared binary codec for the trace (MCTRACE1/2) and checkpoint (MCCKPT1)
// file formats: LEB128 varints, ZigZag, fixed-width u64/f64, id lists and
// an FNV-1a trailer. Extracted from sim/trace.cpp; the byte layouts it
// produces are frozen — golden traces are byte-compared every build, so
// any change here is a format break.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
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

/// Bounds-checked cursor over an encoded buffer. `label` prefixes every
/// error so a truncated trace and a truncated checkpoint stay
/// distinguishable; `end` is exclusive (a checksum trailer lives beyond it).
struct ByteReader {
  const std::vector<std::uint8_t>& bytes;
  std::size_t pos = 0;
  std::size_t end = 0;
  const char* label = "binio";

  std::uint8_t u8() {
    MANETCAP_CHECK_MSG(pos < end, label << ": truncated buffer");
    return bytes[pos++];
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      MANETCAP_CHECK_MSG(pos < end, label << ": truncated varint");
      const std::uint8_t b = bytes[pos++];
      MANETCAP_CHECK_MSG(shift < 64, label << ": varint overflow");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  std::uint32_t u32v() {
    const std::uint64_t v = varint();
    MANETCAP_CHECK_MSG(v <= 0xffffffffULL,
                       label << ": field exceeds 32 bits");
    return static_cast<std::uint32_t>(v);
  }

  /// Reads an element count and checks it against the bytes left before
  /// the caller allocates: each element encodes to at least
  /// `min_bytes_each` bytes, so a count the buffer cannot hold is a named
  /// error instead of an out-of-memory-sized allocation.
  std::uint64_t count(std::size_t min_bytes_each, const char* what) {
    const std::uint64_t n = varint();
    MANETCAP_CHECK_MSG(n <= (end - pos) / min_bytes_each,
                       label << ": " << what << " count " << n
                             << " exceeds the " << (end - pos)
                             << " bytes left");
    return n;
  }

  std::uint64_t u64_fixed() {
    MANETCAP_CHECK_MSG(pos + 8 <= end, label << ": truncated u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(bytes[pos + i]) << (8 * i);
    pos += 8;
    return v;
  }
};

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

inline std::uint64_t get_u64_fixed(const std::vector<std::uint8_t>& bytes,
                                   std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(bytes[pos + i]) << (8 * i);
  return v;
}

inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64_fixed(out, std::bit_cast<std::uint64_t>(v));
}

/// Reads a fixed-width f64 through the reader (with bounds check) and
/// advances it — unlike get_u64_fixed, which peeks at a raw offset.
inline double get_f64(ByteReader& r) {
  MANETCAP_CHECK_MSG(r.pos + 8 <= r.end, r.label << ": truncated f64");
  const double v = std::bit_cast<double>(get_u64_fixed(r.bytes, r.pos));
  r.pos += 8;
  return v;
}

inline void put_id_list(std::vector<std::uint8_t>& out,
                        const std::vector<std::uint32_t>& v) {
  put_varint(out, v.size());
  for (std::uint32_t x : v) put_varint(out, x);
}

inline std::vector<std::uint32_t> get_id_list(ByteReader& r) {
  std::vector<std::uint32_t> v(r.count(1, "id list"));
  for (auto& x : v) x = r.u32v();
  return v;
}

inline void put_id_lists(std::vector<std::uint8_t>& out,
                         const std::vector<std::vector<std::uint32_t>>& vs) {
  put_varint(out, vs.size());
  for (const auto& v : vs) put_id_list(out, v);
}

inline std::vector<std::vector<std::uint32_t>> get_id_lists(ByteReader& r) {
  std::vector<std::vector<std::uint32_t>> vs(r.count(1, "id table"));
  for (auto& v : vs) v = get_id_list(r);
  return vs;
}

}  // namespace manetcap::util::binio
