// Unit tests for src/common: bit utilities, bit streams, PRNG
// determinism and the Status/Result types.
#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "common/bitstream.hpp"
#include "common/prng.hpp"
#include "common/status.hpp"

namespace audo {
namespace {

TEST(Bits, ExtractAndInsert) {
  EXPECT_EQ(bits(0xDEADBEEF, 0, 8), 0xEFu);
  EXPECT_EQ(bits(0xDEADBEEF, 8, 8), 0xBEu);
  EXPECT_EQ(bits(0xDEADBEEF, 28, 4), 0xDu);
  EXPECT_EQ(bits(0xFFFFFFFF, 0, 32), 0xFFFFFFFFu);

  u32 w = 0;
  w = insert_bits(w, 24, 8, 0xAB);
  w = insert_bits(w, 0, 16, 0x1234);
  EXPECT_EQ(w, 0xAB001234u);
  // Overwrite a field.
  w = insert_bits(w, 0, 16, 0x5678);
  EXPECT_EQ(w, 0xAB005678u);
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(sign_extend(0xFFFF, 16), -1);
  EXPECT_EQ(sign_extend(0x8000, 16), -32768);
  EXPECT_EQ(sign_extend(0x7FFF, 16), 32767);
  EXPECT_EQ(sign_extend(0x1, 1), -1);
  EXPECT_EQ(sign_extend(0x0, 1), 0);
}

TEST(Bits, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(32), 5u);
  EXPECT_EQ(align_up(5, 4), 8u);
  EXPECT_EQ(align_up(8, 4), 8u);
  EXPECT_TRUE(is_aligned(64, 32));
  EXPECT_FALSE(is_aligned(48, 32));
}

TEST(BitStream, BasicRoundTrip) {
  BitWriter w;
  w.write(0b101, 3);
  w.write(0xFFFF, 16);
  w.write(1, 1);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(3), 0b101u);
  EXPECT_EQ(r.read(16), 0xFFFFu);
  EXPECT_EQ(r.read(1), 1u);
}

TEST(BitStream, ByteCountIsCeilOfBits) {
  BitWriter w;
  w.write(1, 1);
  EXPECT_EQ(w.byte_count(), 1u);
  w.write(0, 7);
  EXPECT_EQ(w.byte_count(), 1u);
  w.write(0, 1);
  EXPECT_EQ(w.byte_count(), 2u);
}

TEST(BitStream, SmallVarintIsOneNibble) {
  BitWriter w;
  w.write_varint(5);
  EXPECT_EQ(w.bit_count(), 4u);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read_varint(), 5u);
}

class VarintRoundTrip : public ::testing::TestWithParam<u64> {};

TEST_P(VarintRoundTrip, Exact) {
  BitWriter w;
  w.write_varint(GetParam());
  BitReader r(w.bytes());
  EXPECT_EQ(r.read_varint(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 7ull, 8ull, 63ull, 64ull, 1000ull,
                      0xFFFFull, 0x12345678ull, 0xFFFFFFFFull,
                      0xFFFFFFFFFFFFFFFFull));

TEST(BitStream, MixedSequenceProperty) {
  // Property: any interleaving of fixed-width fields and varints decodes
  // to the written values.
  Prng prng(99);
  BitWriter w;
  std::vector<std::pair<u64, unsigned>> fields;  // (value, width or 0=varint)
  for (int i = 0; i < 500; ++i) {
    if (prng.chance(0.5)) {
      const unsigned width = 1 + static_cast<unsigned>(prng.next_below(32));
      const u64 value = prng.next_u64() & ((width == 64) ? ~0ull
                                                          : ((1ull << width) - 1));
      w.write(value, width);
      fields.emplace_back(value, width);
    } else {
      const u64 value = prng.next_u64() >> prng.next_below(60);
      w.write_varint(value);
      fields.emplace_back(value, 0);
    }
  }
  BitReader r(w.bytes());
  for (const auto& [value, width] : fields) {
    if (width == 0) {
      EXPECT_EQ(r.read_varint(), value);
    } else {
      EXPECT_EQ(r.read(width), value);
    }
  }
}

TEST(Prng, DeterministicAcrossInstances) {
  Prng a(42);
  Prng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Prng, GoldenValuesStable) {
  // Cycle-count assertions elsewhere depend on these never changing.
  Prng prng(1);
  const u64 first = prng.next_u64();
  Prng prng2(1);
  EXPECT_EQ(prng2.next_u64(), first);
  EXPECT_NE(Prng(2).next_u64(), first);
}

TEST(Prng, RangeBounds) {
  Prng prng(7);
  for (int i = 0; i < 1000; ++i) {
    const i64 v = prng.next_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const u64 b = prng.next_below(17);
    EXPECT_LT(b, 17u);
    const double d = prng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Status, OkAndError) {
  Status ok;
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.to_string(), "OK");
  Status err = error(StatusCode::kNotFound, "thing missing");
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.to_string(), "NOT_FOUND: thing missing");
}

TEST(Result, ValueAndStatus) {
  Result<int> good(42);
  EXPECT_TRUE(good.is_ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_TRUE(good.status().is_ok());

  Result<int> bad(error(StatusCode::kParseError, "nope"));
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  EXPECT_EQ(bad.value_or(-1), -1);
}

}  // namespace
}  // namespace audo
