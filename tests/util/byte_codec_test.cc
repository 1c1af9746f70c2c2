// Copyright (c) 2026 moqo authors. MIT license.
//
// The one byte codec under the wire protocol, the persisted formats and
// the cache keys: every width round-trips bit-exactly, every read fails
// cleanly on truncated or hostile input without moving the cursor, and
// FNV-1a streams across split inputs for both seeds in use.

#include "util/byte_codec.h"

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/format.h"

namespace moqo {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ByteCodecTest, IntegersAreLittleEndianFixedWidth) {
  std::string out;
  PutU8(&out, 0x01);
  PutU16(&out, 0x0302);
  PutU32(&out, 0x07060504);
  PutU64(&out, 0x0f0e0d0c0b0a0908ull);
  PutI32(&out, -2);
  PutI64(&out, -3);
  std::string expected;
  for (char c = 1; c <= 0x0f; ++c) expected.push_back(c);
  expected += std::string("\xfe\xff\xff\xff", 4);
  expected += std::string("\xfd\xff\xff\xff\xff\xff\xff\xff", 8);
  EXPECT_EQ(out, expected);
}

TEST(ByteCodecTest, RoundTripsEveryWidth) {
  const std::vector<double> doubles = {
      0.0,
      -0.0,
      5e-324,                  // Smallest denormal.
      2.2250738585072009e-308,  // Largest denormal.
      1.0 / 3.0,
      -kInf,
      kInf,
      DoubleFromBits(0x7ff8000000c0ffeeull),  // Quiet NaN with a payload.
      DoubleFromBits(0xfff4000000000001ull),  // Negative signaling NaN.
  };
  const uint16_t u16s[] = {0, 0xbeef, 0xffff};
  const uint32_t u32s[] = {0, 0xdeadbeef, 0xffffffff};
  const uint64_t u64s[] = {0, 0x0123456789abcdefull, ~uint64_t{0}};
  const int32_t i32s[] = {std::numeric_limits<int32_t>::min(), -1,
                          std::numeric_limits<int32_t>::max()};
  const int64_t i64s[] = {std::numeric_limits<int64_t>::min(), -1,
                          std::numeric_limits<int64_t>::max()};
  std::string out;
  PutU8(&out, 0);
  PutU8(&out, 0x7f);
  PutU8(&out, 0xff);
  for (uint16_t v : u16s) PutU16(&out, v);
  for (uint32_t v : u32s) PutU32(&out, v);
  for (uint64_t v : u64s) PutU64(&out, v);
  for (int32_t v : i32s) PutI32(&out, v);
  for (int64_t v : i64s) PutI64(&out, v);
  for (double v : doubles) PutF64(&out, v);
  PutString(&out, std::string("a\0b", 3));
  PutF64Vector(&out, doubles);

  ByteReader reader(out.data(), out.size());
  uint8_t u8;
  ASSERT_TRUE(reader.GetU8(&u8));
  EXPECT_EQ(u8, 0);
  ASSERT_TRUE(reader.GetU8(&u8));
  EXPECT_EQ(u8, 0x7f);
  int8_t i8;
  ASSERT_TRUE(reader.GetI8(&i8));
  EXPECT_EQ(i8, -1);
  for (uint16_t v : u16s) {
    uint16_t got;
    ASSERT_TRUE(reader.GetU16(&got));
    EXPECT_EQ(got, v);
  }
  for (uint32_t v : u32s) {
    uint32_t got;
    ASSERT_TRUE(reader.GetU32(&got));
    EXPECT_EQ(got, v);
  }
  for (uint64_t v : u64s) {
    uint64_t got;
    ASSERT_TRUE(reader.GetU64(&got));
    EXPECT_EQ(got, v);
  }
  for (int32_t v : i32s) {
    int32_t got;
    ASSERT_TRUE(reader.GetI32(&got));
    EXPECT_EQ(got, v);
  }
  for (int64_t v : i64s) {
    int64_t got;
    ASSERT_TRUE(reader.GetI64(&got));
    EXPECT_EQ(got, v);
  }
  // Bit patterns, not values: -0.0 == 0.0 and NaN != NaN would hide drift.
  double f64;
  for (double v : doubles) {
    ASSERT_TRUE(reader.GetF64(&f64));
    EXPECT_EQ(DoubleBits(f64), DoubleBits(v));
  }
  std::string s;
  ASSERT_TRUE(reader.GetString(&s));
  EXPECT_EQ(s, std::string("a\0b", 3));
  std::vector<double> vec;
  ASSERT_TRUE(reader.GetF64Vector(&vec));
  ASSERT_EQ(vec.size(), doubles.size());
  for (size_t i = 0; i < vec.size(); ++i) {
    EXPECT_EQ(DoubleBits(vec[i]), DoubleBits(doubles[i])) << i;
  }
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(reader.position(), out.size());
  EXPECT_FALSE(reader.GetU8(&u8));
  EXPECT_TRUE(reader.Skip(0));
  EXPECT_FALSE(reader.Skip(1));
}

TEST(ByteCodecTest, EveryGetFailsAtEveryTruncationWithCursorUnchanged) {
  // Each case: the full encoding of one value and the read that consumes
  // it. A one-byte prefix precedes it so "unchanged" is a non-zero cursor.
  struct Case {
    const char* name;
    std::string bytes;
    std::function<bool(ByteReader*)> get;
  };
  std::string u8, u16, u32, u64, f64, str, bytes, vec;
  PutU8(&u8, 0xab);
  PutU16(&u16, 0xabcd);
  PutU32(&u32, 0xabcdef01u);
  PutU64(&u64, 0xabcdef0123456789ull);
  PutF64(&f64, 1.0 / 3.0);
  PutString(&str, "hello");
  bytes = "xyz";
  PutF64Vector(&vec, {1.0, -0.0, 5e-324});
  const std::vector<Case> cases = {
      {"GetU8", u8, [](ByteReader* r) { uint8_t v = 0; return r->GetU8(&v); }},
      {"GetI8", u8, [](ByteReader* r) { int8_t v = 0; return r->GetI8(&v); }},
      {"GetU16", u16,
       [](ByteReader* r) { uint16_t v = 0; return r->GetU16(&v); }},
      {"GetU32", u32,
       [](ByteReader* r) { uint32_t v = 0; return r->GetU32(&v); }},
      {"GetI32", u32,
       [](ByteReader* r) { int32_t v = 0; return r->GetI32(&v); }},
      {"GetU64", u64,
       [](ByteReader* r) { uint64_t v = 0; return r->GetU64(&v); }},
      {"GetI64", u64,
       [](ByteReader* r) { int64_t v = 0; return r->GetI64(&v); }},
      {"GetF64", f64,
       [](ByteReader* r) { double v = 0; return r->GetF64(&v); }},
      {"GetString", str,
       [](ByteReader* r) {
         std::string v = "untouched";
         const bool ok = r->GetString(&v);
         EXPECT_TRUE(ok || v == "untouched");
         return ok;
       }},
      {"GetBytes", bytes,
       [](ByteReader* r) {
         std::vector<uint8_t> v = {7};
         const bool ok = r->GetBytes(&v, 3);
         EXPECT_TRUE(ok || v == std::vector<uint8_t>{7});
         return ok;
       }},
      {"GetF64Vector", vec,
       [](ByteReader* r) {
         std::vector<double> v = {7.0};
         const bool ok = r->GetF64Vector(&v);
         EXPECT_TRUE(ok || v == std::vector<double>{7.0});
         return ok;
       }},
      {"Skip", bytes, [](ByteReader* r) { return r->Skip(3); }},
  };
  for (const Case& c : cases) {
    const std::string full = "P" + c.bytes;
    for (size_t len = 1; len < full.size(); ++len) {
      ByteReader reader(full.data(), len);
      ASSERT_TRUE(reader.Skip(1));
      EXPECT_FALSE(c.get(&reader)) << c.name << " at length " << len;
      EXPECT_EQ(reader.position(), 1u) << c.name << " at length " << len;
      EXPECT_EQ(reader.remaining(), len - 1) << c.name;
    }
    ByteReader reader(full.data(), full.size());
    ASSERT_TRUE(reader.Skip(1));
    EXPECT_TRUE(c.get(&reader)) << c.name;
    EXPECT_TRUE(reader.exhausted()) << c.name;
  }
}

TEST(ByteCodecTest, HostileLengthIsRejectedBeforeAllocation) {
  std::string hostile_string;
  PutU32(&hostile_string, 0xffffffffu);
  hostile_string += "abc";
  ByteReader string_reader(hostile_string.data(), hostile_string.size());
  std::string s;
  const size_t string_capacity = s.capacity();
  EXPECT_FALSE(string_reader.GetString(&s));
  EXPECT_EQ(s.capacity(), string_capacity);
  EXPECT_EQ(string_reader.position(), 0u);

  // 16 bytes follow the count: exactly 2 doubles fit, 3 do not.
  for (uint32_t count : {0x7fffffffu, 0xffffffffu, 3u}) {
    std::string hostile_vector;
    PutU32(&hostile_vector, count);
    PutF64(&hostile_vector, 1.0);
    PutF64(&hostile_vector, 2.0);
    ByteReader reader(hostile_vector.data(), hostile_vector.size());
    std::vector<double> v;
    EXPECT_FALSE(reader.GetF64Vector(&v)) << count;
    EXPECT_EQ(v.capacity(), 0u) << count;
    EXPECT_EQ(reader.position(), 0u) << count;
  }
  std::string exact;
  PutU32(&exact, 2);
  PutF64(&exact, 1.0);
  PutF64(&exact, 2.0);
  ByteReader reader(exact.data(), exact.size());
  std::vector<double> v;
  EXPECT_TRUE(reader.GetF64Vector(&v));
  EXPECT_EQ(v, (std::vector<double>{1.0, 2.0}));
}

TEST(ByteCodecTest, Fnv1aStreamsAcrossSplitsForBothSeeds) {
  // Published FNV-1a 64-bit vectors.
  EXPECT_EQ(Fnv1a(""), kFnv1aOffsetBasis);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171f73967e8ull);

  const std::string input("many-objective\0query", 20);
  for (uint64_t seed : {kFnv1aOffsetBasis, persist::kChecksumSeed}) {
    const uint64_t whole = Fnv1a(input, seed);
    for (size_t split = 0; split <= input.size(); ++split) {
      const std::string a = input.substr(0, split);
      const std::string b = input.substr(split);
      EXPECT_EQ(Fnv1a(b, Fnv1a(a, seed)), whole)
          << "seed " << seed << " split " << split;
    }
  }
  EXPECT_NE(Fnv1a(input, kFnv1aOffsetBasis),
            Fnv1a(input, persist::kChecksumSeed));
}

}  // namespace
}  // namespace moqo
