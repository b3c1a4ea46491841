#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/bit_util.h"
#include "src/common/hexdump.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/text.h"
#include "src/common/wide_word.h"

namespace emu {
namespace {

// --- WideUInt ---------------------------------------------------------------

TEST(WideWord, DefaultIsZero) {
  Word256 w;
  EXPECT_TRUE(w.IsZero());
  EXPECT_EQ(w.ToU64(), 0u);
}

TEST(WideWord, LowWordConstruction) {
  Word256 w(0xdeadbeefULL);
  EXPECT_EQ(w.ToU64(), 0xdeadbeefULL);
  EXPECT_FALSE(w.IsZero());
}

TEST(WideWord, AdditionCarriesAcrossLimbs) {
  Word128 a;
  a.SetLimb(0, ~u64{0});
  Word128 b(1);
  Word128 sum = a + b;
  EXPECT_EQ(sum.Limb(0), 0u);
  EXPECT_EQ(sum.Limb(1), 1u);
}

TEST(WideWord, SubtractionBorrowsAcrossLimbs) {
  Word128 a;
  a.SetLimb(1, 1);  // 2^64
  Word128 b(1);
  Word128 diff = a - b;
  EXPECT_EQ(diff.Limb(0), ~u64{0});
  EXPECT_EQ(diff.Limb(1), 0u);
}

TEST(WideWord, SubtractionWrapsLikeHardware) {
  Word128 zero;
  Word128 one(1);
  Word128 wrapped = zero - one;
  EXPECT_EQ(wrapped, Word128::Max());
}

TEST(WideWord, ShiftLeftMovesAcrossLimbBoundary) {
  Word128 w(1);
  Word128 shifted = w << 64;
  EXPECT_EQ(shifted.Limb(0), 0u);
  EXPECT_EQ(shifted.Limb(1), 1u);
}

TEST(WideWord, ShiftLeftNonMultipleOf64) {
  Word128 w(0x8000000000000000ULL);
  Word128 shifted = w << 1;
  EXPECT_EQ(shifted.Limb(0), 0u);
  EXPECT_EQ(shifted.Limb(1), 1u);
}

TEST(WideWord, ShiftRightMirrorsShiftLeft) {
  Word256 w(0xabcdef12345ULL);
  EXPECT_EQ((w << 100) >> 100, w);
}

TEST(WideWord, ShiftByWidthOrMoreIsZero) {
  Word128 w = Word128::Max();
  EXPECT_TRUE((w << 128).IsZero());
  EXPECT_TRUE((w >> 128).IsZero());
  EXPECT_TRUE((w << 200).IsZero());
}

TEST(WideWord, ShiftByZeroIsIdentity) {
  Word128 w(0x1234);
  EXPECT_EQ(w << 0, w);
  EXPECT_EQ(w >> 0, w);
}

TEST(WideWord, BitwiseOperators) {
  Word128 a(0xf0f0);
  Word128 b(0x0ff0);
  EXPECT_EQ((a & b).ToU64(), 0x00f0u);
  EXPECT_EQ((a | b).ToU64(), 0xfff0u);
  EXPECT_EQ((a ^ b).ToU64(), 0xff00u);
}

TEST(WideWord, NotIsMaxOfZero) {
  Word256 zero;
  EXPECT_EQ(~zero, Word256::Max());
}

TEST(WideWord, ComparisonOrdersByHighLimbFirst) {
  Word128 small(0xffffffffffffffffULL);
  Word128 big;
  big.SetLimb(1, 1);
  EXPECT_LT(small, big);
  EXPECT_GT(big, small);
  EXPECT_EQ(small, small);
}

TEST(WideWord, ByteAccessors) {
  Word256 w;
  w.SetByte(0, 0xaa);
  w.SetByte(8, 0xbb);
  w.SetByte(31, 0xcc);
  EXPECT_EQ(w.Byte(0), 0xaa);
  EXPECT_EQ(w.Byte(8), 0xbb);
  EXPECT_EQ(w.Byte(31), 0xcc);
  EXPECT_EQ(w.Limb(0) & 0xff, 0xaau);
  EXPECT_EQ(w.Limb(1) & 0xff, 0xbbu);
}

TEST(WideWord, ExtractDeposit) {
  Word256 w;
  w.Deposit(60, 16, 0xbeef);  // straddles the limb 0/1 boundary
  EXPECT_EQ(w.Extract(60, 16), 0xbeefu);
  EXPECT_EQ(w.Extract(0, 60), 0u);
}

TEST(WideWord, BitSetAndGet) {
  Word512 w;
  w.SetBit(511, true);
  EXPECT_TRUE(w.Bit(511));
  EXPECT_EQ(w.CountLeadingZeros(), 0u);
  w.SetBit(511, false);
  EXPECT_TRUE(w.IsZero());
  EXPECT_EQ(w.CountLeadingZeros(), 512u);
}

TEST(WideWord, PopCount) {
  Word128 w;
  w.SetLimb(0, 0xff);
  w.SetLimb(1, 0xf);
  EXPECT_EQ(w.PopCount(), 12u);
}

TEST(WideWord, ToHex) {
  Word128 w(0xabcULL);
  EXPECT_EQ(w.ToHex(), "0x00000000000000000000000000000abc");
}

// Property sweep: (a + b) - b == a for assorted word widths and patterns.
class WideWordRoundTrip : public ::testing::TestWithParam<u64> {};

TEST_P(WideWordRoundTrip, AddThenSubtractIsIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Word256 a;
    Word256 b;
    for (usize limb = 0; limb < Word256::kLimbs; ++limb) {
      a.SetLimb(limb, rng.NextU64());
      b.SetLimb(limb, rng.NextU64());
    }
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a ^ b) ^ b, a);
    const usize shift = rng.NextBelow(255) + 1;
    EXPECT_EQ((a >> shift) << shift, (a >> shift) << shift);  // no crash, deterministic
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WideWordRoundTrip, ::testing::Values(1u, 42u, 0xfeedu));

// --- BitUtil ----------------------------------------------------------------

TEST(BitUtil, RoundTrip16) {
  std::array<u8, 8> buf{};
  BitUtil::Set16(buf, 2, 0xbeef);
  EXPECT_EQ(BitUtil::Get16(buf, 2), 0xbeef);
  EXPECT_EQ(buf[2], 0xbe);  // network byte order
  EXPECT_EQ(buf[3], 0xef);
}

TEST(BitUtil, RoundTrip32) {
  std::array<u8, 8> buf{};
  BitUtil::Set32(buf, 0, 0xc0a80101);  // 192.168.1.1
  EXPECT_EQ(BitUtil::Get32(buf, 0), 0xc0a80101u);
  EXPECT_EQ(buf[0], 0xc0);
}

TEST(BitUtil, RoundTrip48) {
  std::array<u8, 8> buf{};
  BitUtil::Set48(buf, 1, 0x0123456789abULL);
  EXPECT_EQ(BitUtil::Get48(buf, 1), 0x0123456789abULL);
}

TEST(BitUtil, RoundTrip64) {
  std::array<u8, 16> buf{};
  BitUtil::Set64(buf, 5, 0x0123456789abcdefULL);
  EXPECT_EQ(BitUtil::Get64(buf, 5), 0x0123456789abcdefULL);
}

TEST(BitUtil, GetBitsReadsMsbFirst) {
  std::array<u8, 2> buf = {0x45, 0x00};  // IPv4 version=4, IHL=5
  EXPECT_EQ(BitUtil::GetBits(buf, 0, 0, 4), 4u);
  EXPECT_EQ(BitUtil::GetBits(buf, 0, 4, 4), 5u);
}

TEST(BitUtil, SetBitsWritesMsbFirst) {
  std::array<u8, 2> buf{};
  BitUtil::SetBits(buf, 0, 0, 4, 4);
  BitUtil::SetBits(buf, 0, 4, 4, 5);
  EXPECT_EQ(buf[0], 0x45);
}

TEST(BitUtil, SetBitsAcrossByteBoundary) {
  std::array<u8, 3> buf{};
  BitUtil::SetBits(buf, 0, 4, 12, 0xabc);
  EXPECT_EQ(BitUtil::GetBits(buf, 0, 4, 12), 0xabcu);
  EXPECT_EQ(buf[0], 0x0a);
  EXPECT_EQ(buf[1], 0xbc);
}

TEST(BitUtil, SetBitsClearsExistingBits) {
  std::array<u8, 1> buf = {0xff};
  BitUtil::SetBits(buf, 0, 2, 4, 0);
  EXPECT_EQ(buf[0], 0xc3);
}

// --- Status / Expected ------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = MalformedPacket("short header");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kMalformedPacket);
  EXPECT_EQ(s.ToString(), "MALFORMED_PACKET: short header");
}

TEST(Expected, HoldsValue) {
  Expected<int> e = 42;
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*e, 42);
  EXPECT_EQ(e.value_or(7), 42);
}

TEST(Expected, HoldsError) {
  Expected<int> e = NotFound("no entry");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(e.value_or(7), 7);
}

// --- Text: the lexical layer of every text grammar ---------------------------

TEST(Text, DecimalParserTakesDigitsOnly) {
  EXPECT_EQ(*text::ParseU64("0"), 0u);
  EXPECT_EQ(*text::ParseU64("007"), 7u);
  EXPECT_EQ(*text::ParseU64("18446744073709551615"), ~u64{0});
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "0x10", "1e3", "1.0", "1_000"}) {
    EXPECT_FALSE(text::ParseU64(bad).ok()) << "'" << bad << "'";
  }
}

TEST(Text, DecimalParserRejectsOverflowAndValuesAboveMax) {
  EXPECT_FALSE(text::ParseU64("18446744073709551616").ok());
  EXPECT_FALSE(text::ParseU64("18446744073709551617").ok());  // would wrap to 1
  EXPECT_FALSE(text::ParseU64("99999999999999999999999999").ok());
  EXPECT_EQ(*text::ParseU64("65535", 65535), 65535u);
  EXPECT_FALSE(text::ParseU64("65536", 65535).ok());
  EXPECT_EQ(*text::ParseU64("0", 0), 0u);
  EXPECT_FALSE(text::ParseU64("1", 0).ok());
  // A bound below 9 must not wrap the per-digit check.
  EXPECT_EQ(*text::ParseU64("4", 4), 4u);
  EXPECT_FALSE(text::ParseU64("5", 4).ok());
  EXPECT_FALSE(text::ParseU64("9", 4).ok());
  EXPECT_FALSE(text::ParseU64("33", 32).ok());
  EXPECT_FALSE(text::ParseU64("39", 32).ok());
}

TEST(Text, TimesScaleBySuffixAndStayWithinPicoseconds) {
  EXPECT_EQ(*text::ParseTimePs("1500"), 1500);
  EXPECT_EQ(*text::ParseTimePs("2ns"), 2 * kPicosPerNano);
  EXPECT_EQ(*text::ParseTimePs("500us"), 500 * kPicosPerMicro);
  EXPECT_EQ(*text::ParseTimePs("4ms"), 4 * kPicosPerMilli);
  EXPECT_EQ(*text::ParseTimePs("1s"), kPicosPerSecond);
  // The INT64_MAX ps cap, bare and after scaling.
  EXPECT_EQ(*text::ParseTimePs("9223372036854775807"), INT64_MAX);
  EXPECT_FALSE(text::ParseTimePs("9223372036854775808").ok());
  EXPECT_EQ(*text::ParseTimePs("9223372s"), 9223372 * kPicosPerSecond);
  EXPECT_FALSE(text::ParseTimePs("9223373s").ok());
  EXPECT_FALSE(text::ParseTimePs("18446744073709551615ns").ok());
  for (const char* bad : {"", "us", "-1us", "+5ms", "5 ms", "5xs", "5usec", "5US", "1.5ms"}) {
    EXPECT_FALSE(text::ParseTimePs(bad).ok()) << "'" << bad << "'";
  }
}

TEST(Text, RatesScaleBySuffixWithoutWrapping) {
  EXPECT_EQ(*text::ParseRate("100"), 100u);
  EXPECT_EQ(*text::ParseRate("10k"), 10'000u);
  EXPECT_EQ(*text::ParseRate("10K"), 10'000u);
  EXPECT_EQ(*text::ParseRate("25M"), 25'000'000u);
  EXPECT_EQ(*text::ParseRate("10G"), 10'000'000'000u);
  EXPECT_EQ(*text::ParseRate("18446744073G"), 18'446'744'073'000'000'000u);
  EXPECT_FALSE(text::ParseRate("18446744074G").ok());  // the product passes 2^64
  EXPECT_FALSE(text::ParseRate("-1G").ok());
  EXPECT_FALSE(text::ParseRate("10T").ok());
}

TEST(Text, ProbabilitiesAreDecimalFractionsInTheUnitInterval) {
  EXPECT_EQ(*text::ParseProbability("0"), 0.0);
  EXPECT_EQ(*text::ParseProbability("1"), 1.0);
  EXPECT_EQ(*text::ParseProbability("1.0"), 1.0);
  EXPECT_EQ(*text::ParseProbability("0.1"), 0.1);  // rounded as strtod rounds
  EXPECT_EQ(*text::ParseProbability("0.0053"), 0.0053);
  EXPECT_EQ(*text::ParseProbability(".5"), 0.5);
  const std::vector<std::string> bad_inputs = {
      "",     ".",    "-0",   "-0.1", "+0.5",  "1.5",   "2", "1e-3", "0x0.8",
      "inf",  "nan",  "0.5 ", "0..5", "0.5.1", "1" + std::string(400, '0')};
  for (const std::string& bad : bad_inputs) {
    EXPECT_FALSE(text::ParseProbability(bad).ok()) << "'" << bad << "'";
  }
}

TEST(Text, TrimAndTokenizeSplitOnEveryWhitespaceByte) {
  EXPECT_EQ(text::Trim(" \t\r a b \n\v\f"), "a b");
  EXPECT_EQ(text::Trim(" \t "), "");
  EXPECT_EQ(text::Tokenize("  print\tx \r\n y "), (std::vector<std::string>{"print", "x", "y"}));
  EXPECT_TRUE(text::Tokenize(" \t ").empty());
}

TEST(Text, KeyValueSplitsAtTheFirstEquals) {
  const std::optional<text::KeyValue> kv = text::SplitKeyValue("impair=a=b");
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(kv->key, "impair");
  EXPECT_EQ(kv->value, "a=b");
  EXPECT_FALSE(text::SplitKeyValue("key").has_value());
  EXPECT_FALSE(text::SplitKeyValue("=value").has_value());
  EXPECT_FALSE(text::SplitKeyValue("key=").has_value());
}

TEST(Text, CommentsRunToEndOfLineBeforeEntriesSplit) {
  const std::vector<text::Entry> entries = text::SplitEntries(
      "# header; not an entry\n"
      "a 1 ; b 2 # off for now; c 3\n"
      "\n"
      " ; ;\n"
      "d#e\n"
      "last");
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].line, 2u);
  EXPECT_EQ(entries[0].text, "a 1");
  EXPECT_EQ(entries[0].tokens, (std::vector<std::string>{"a", "1"}));
  EXPECT_EQ(entries[1].line, 2u);
  EXPECT_EQ(entries[1].text, "b 2");
  EXPECT_EQ(entries[2].line, 5u);
  EXPECT_EQ(entries[2].tokens, (std::vector<std::string>{"d"}));
  EXPECT_EQ(entries[3].line, 6u);
  EXPECT_EQ(entries[3].text, "last");
}

// --- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const u64 v = rng.NextInRange(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Rng, LognormalIsPositiveAndSkewed) {
  Rng rng(13);
  double sum = 0;
  double max = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextLognormal(0.0, 1.0);
    EXPECT_GT(v, 0.0);
    sum += v;
    max = std::max(max, v);
  }
  const double mean = sum / n;
  EXPECT_GT(max, mean * 5);  // right tail present
}

// --- Hexdump ----------------------------------------------------------------

TEST(Hexdump, FormatsOffsetHexAscii) {
  std::vector<u8> data = {'H', 'i', 0x00, 0xff};
  const std::string dump = Hexdump(data);
  EXPECT_NE(dump.find("000000"), std::string::npos);
  EXPECT_NE(dump.find("48 69 00 ff"), std::string::npos);
  EXPECT_NE(dump.find("|Hi..|"), std::string::npos);
}

TEST(Hexdump, HexJoinUsesSeparator) {
  std::vector<u8> data = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(HexJoin(data), "de:ad:be:ef");
  EXPECT_EQ(HexJoin(data, '-'), "de-ad-be-ef");
}

// --- rng::Shuffle / rng::PickK (seed-stable sequence helpers) ----------------

TEST(RngSequence, ShuffleIsAPermutationAndSeedStable) {
  std::vector<int> items(32);
  std::iota(items.begin(), items.end(), 0);
  std::vector<int> a = items;
  std::vector<int> b = items;
  std::vector<int> c = items;
  Rng rng_a(7);
  Rng rng_b(7);
  Rng rng_c(8);
  rng::Shuffle(rng_a, a);
  rng::Shuffle(rng_b, b);
  rng::Shuffle(rng_c, c);
  EXPECT_EQ(a, b);  // same seed, same permutation
  EXPECT_NE(a, c);  // different seed moves it
  EXPECT_NE(a, items);  // 32! leaves identity vanishingly unlikely
  std::vector<int> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, items);  // still a permutation
}

TEST(RngSequence, ShuffleDrawCountIsFixed) {
  // The documented contract: Shuffle consumes exactly size()-1 draws, so a
  // protocol's stream position is a pure function of the calls made. Two
  // streams that diverge only in what happens AFTER the shuffle must agree
  // on the next draw.
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7};
  Rng rng_a(42);
  Rng rng_b(42);
  std::vector<int> copy = items;
  rng::Shuffle(rng_a, items);
  for (usize i = 0; i + 1 < copy.size(); ++i) {
    rng_b.NextBelow(copy.size() - i);  // mirror the 6 Fisher-Yates draws
  }
  EXPECT_EQ(rng_a.NextU64(), rng_b.NextU64());
}

TEST(RngSequence, PickKReturnsDistinctElementsFromSource) {
  std::vector<u16> items = {10, 20, 30, 40, 50, 60, 70, 80};
  Rng rng(3);
  const std::vector<u16> picked = rng::PickK(rng, items, 3);
  ASSERT_EQ(picked.size(), 3u);
  std::set<u16> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique.size(), 3u);
  for (u16 value : picked) {
    EXPECT_NE(std::find(items.begin(), items.end(), value), items.end());
  }
}

TEST(RngSequence, PickKClampsToSourceSize) {
  std::vector<u16> items = {1, 2, 3};
  Rng rng(5);
  const std::vector<u16> picked = rng::PickK(rng, items, 10);
  ASSERT_EQ(picked.size(), 3u);
  std::set<u16> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique.size(), 3u);  // clamped pick is the whole set, shuffled
}

TEST(RngSequence, PickKIsSeedStableWithFixedDrawCount) {
  std::vector<u16> items = {1, 2, 3, 4, 5, 6};
  Rng rng_a(11);
  Rng rng_b(11);
  EXPECT_EQ(rng::PickK(rng_a, items, 2), rng::PickK(rng_b, items, 2));
  // min(k, size) = 2 draws each; both streams sit at the same position.
  EXPECT_EQ(rng_a.NextU64(), rng_b.NextU64());
}

TEST(RngSequence, PickKCoversAllSubsetsOverManyDraws) {
  // Sanity (not a distribution test): over many trials every element of a
  // 5-element set shows up in some 2-subset, i.e. the pick is not stuck on a
  // prefix.
  std::vector<u16> items = {0, 1, 2, 3, 4};
  Rng rng(17);
  std::set<u16> seen;
  for (int trial = 0; trial < 200; ++trial) {
    for (u16 value : rng::PickK(rng, items, 2)) {
      seen.insert(value);
    }
  }
  EXPECT_EQ(seen.size(), items.size());
}

}  // namespace
}  // namespace emu
