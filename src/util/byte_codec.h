// Copyright (c) 2026 moqo authors. MIT license.
//
// The one byte codec: every scalar that crosses a process boundary or
// keys a cache turns into bytes and back here. The wire protocol
// (net/wire.h), the snapshot file and disk tier (persist/format.h), and
// the canonical cache keys (query/canonical.h, service/signature.h,
// memo/subplan_key.h) all build on these primitives, so a frontier comes
// back bit-exact from any route and equal keys mean equal bytes.
//
// Encoding contract: every integer is little-endian fixed-width; every
// double is its IEEE-754 bit pattern (NaN payloads and -0.0 included). No
// varints, no alignment padding, no host-endianness leaks. The length
// prefixes of PutString/PutF64Vector are u32; canonical keys use their
// own u64-prefixed strings (AppendCanonicalString).
//
// Fnv1a is the one FNV-1a 64-bit hash: it routes canonical keys and
// checksums persisted records. It streams — the hash of a prefix is the
// state after it — so Fnv1a(b, Fnv1a(a, s)) == Fnv1a(a + b, s) for any
// seed s. Not cryptographic: it detects torn writes and bit rot.

#ifndef MOQO_UTIL_BYTE_CODEC_H_
#define MOQO_UTIL_BYTE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace moqo {

/// The FNV-1a 64-bit offset basis: the hash state of the empty string.
inline constexpr uint64_t kFnv1aOffsetBasis = 14695981039346656037ull;

/// FNV-1a over `bytes`, continuing from `state`.
inline uint64_t Fnv1a(std::string_view bytes,
                      uint64_t state = kFnv1aOffsetBasis) {
  for (unsigned char c : bytes) {
    state ^= c;
    state *= 1099511628211ull;
  }
  return state;
}

inline uint64_t DoubleBits(double v) { return std::bit_cast<uint64_t>(v); }

inline double DoubleFromBits(uint64_t bits) {
  return std::bit_cast<double>(bits);
}

// ---- Little-endian appenders: one append per value. ----

/// Appends unsigned `v` as sizeof(U) little-endian bytes.
template <typename U>
inline void PutLittleEndian(std::string* out, U v) {
  char bytes[sizeof(U)];
  for (size_t i = 0; i < sizeof(U); ++i) {
    bytes[i] = static_cast<char>(v >> (8 * i));
  }
  out->append(bytes, sizeof(U));
}

inline void PutU8(std::string* out, uint8_t v) { PutLittleEndian(out, v); }
inline void PutU16(std::string* out, uint16_t v) { PutLittleEndian(out, v); }
inline void PutU32(std::string* out, uint32_t v) { PutLittleEndian(out, v); }
inline void PutU64(std::string* out, uint64_t v) { PutLittleEndian(out, v); }
inline void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}
inline void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}
inline void PutF64(std::string* out, double v) { PutU64(out, DoubleBits(v)); }

/// u32 length, then the bytes.
inline void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// u32 count, then the doubles.
inline void PutF64Vector(std::string* out, const std::vector<double>& values) {
  PutU32(out, static_cast<uint32_t>(values.size()));
  for (double v : values) PutF64(out, v);
}

// ---- Bounds-checked little-endian reader. ----

/// Cursor over an encoded byte range (a frame payload, an mmap'ed file
/// region, an in-memory string). Every Get* either reads a whole value
/// and advances, or fails — returns false with the cursor and the output
/// unchanged — so truncated or hostile input surfaces as a clean decode
/// failure, never an out-of-bounds read.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const unsigned char*>(data)), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool exhausted() const { return pos_ == size_; }
  const char* cursor() const {
    return reinterpret_cast<const char*>(data_ + pos_);
  }

  bool Skip(size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

  bool GetU8(uint8_t* out) { return GetLittleEndian(out); }
  bool GetU16(uint16_t* out) { return GetLittleEndian(out); }
  bool GetU32(uint32_t* out) { return GetLittleEndian(out); }
  bool GetU64(uint64_t* out) { return GetLittleEndian(out); }
  bool GetI8(int8_t* out) { return GetSigned<uint8_t>(out); }
  bool GetI32(int32_t* out) { return GetSigned<uint32_t>(out); }
  bool GetI64(int64_t* out) { return GetSigned<uint64_t>(out); }

  bool GetF64(double* out) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    *out = DoubleFromBits(bits);
    return true;
  }

  /// The next `count` bytes, copied.
  bool GetBytes(std::vector<uint8_t>* out, size_t count) {
    if (remaining() < count) return false;
    out->assign(data_ + pos_, data_ + pos_ + count);
    pos_ += count;
    return true;
  }

  /// A PutString value. The length is checked against the remaining
  /// bytes before anything is allocated.
  bool GetString(std::string* out) {
    const size_t start = pos_;
    uint32_t len;
    if (!GetU32(&len) || remaining() < len) {
      pos_ = start;
      return false;
    }
    out->assign(cursor(), len);
    pos_ += len;
    return true;
  }

  /// A PutF64Vector value. A count cannot promise more doubles than bytes
  /// remain, so a hostile count never reserves memory.
  bool GetF64Vector(std::vector<double>* out) {
    const size_t start = pos_;
    uint32_t count;
    if (!GetU32(&count) || remaining() / 8 < count) {
      pos_ = start;
      return false;
    }
    out->resize(count);
    for (double& v : *out) GetF64(&v);
    return true;
  }

 private:
  template <typename U>
  bool GetLittleEndian(U* out) {
    if (remaining() < sizeof(U)) return false;
    U v = 0;
    for (size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<U>(static_cast<U>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(U);
    *out = v;
    return true;
  }

  template <typename U, typename S>
  bool GetSigned(S* out) {
    U v;
    if (!GetLittleEndian(&v)) return false;
    *out = static_cast<S>(v);
    return true;
  }

  const unsigned char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace moqo

#endif  // MOQO_UTIL_BYTE_CODEC_H_
