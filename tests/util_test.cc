/**
 * @file
 * Unit tests for the utility substrate: bit I/O, varints, zigzag and
 * bit-field helpers, hashing determinism, scans, statistics, and the
 * Pareto front used by the evaluation figures.
 */
#include <gtest/gtest.h>

#include "util/bitio.h"
#include "util/bitpack.h"
#include "util/hash.h"
#include "util/pareto.h"
#include "util/scan.h"
#include "util/stats.h"

namespace fpc {
namespace {

TEST(BitIo, RoundTripMixedWidths)
{
    Bytes buf;
    BitWriter bw(buf);
    bw.Put(0x5, 3);
    bw.Put(0x12345678, 32);
    bw.Put(1, 1);
    bw.Put(0xdeadbeefcafef00dull, 64);
    bw.Put(0, 0);
    bw.Put(0x7f, 7);
    bw.Finish();

    BitReader br{ByteSpan(buf)};
    EXPECT_EQ(br.Get(3), 0x5u);
    EXPECT_EQ(br.Get(32), 0x12345678u);
    EXPECT_EQ(br.Get(1), 1u);
    EXPECT_EQ(br.Get(64), 0xdeadbeefcafef00dull);
    EXPECT_EQ(br.Get(0), 0u);
    EXPECT_EQ(br.Get(7), 0x7fu);
}

TEST(BitIo, ReadPastEndThrows)
{
    Bytes buf;
    BitWriter bw(buf);
    bw.Put(0xff, 8);
    bw.Finish();
    BitReader br{ByteSpan(buf)};
    br.Get(8);
    EXPECT_THROW(br.Get(1), CorruptStreamError);
}

TEST(BitIo, ManySmallFields)
{
    Bytes buf;
    BitWriter bw(buf);
    Rng rng(7);
    std::vector<std::pair<uint64_t, unsigned>> fields;
    for (int i = 0; i < 10000; ++i) {
        unsigned width = static_cast<unsigned>(rng.NextBelow(65));
        uint64_t value = rng.Next();
        if (width < 64) value &= (uint64_t{1} << width) - 1;
        fields.emplace_back(value, width);
        bw.Put(value, width);
    }
    bw.Finish();
    BitReader br{ByteSpan(buf)};
    for (auto [value, width] : fields) {
        ASSERT_EQ(br.Get(width), value);
    }
}

TEST(Varint, RoundTripBoundaries)
{
    Bytes buf;
    ByteWriter wr(buf);
    std::vector<uint64_t> values = {0,       1,       127,        128,
                                    16383,   16384,   UINT32_MAX, UINT64_MAX,
                                    1ull << 56};
    for (uint64_t v : values) wr.PutVarint(v);
    ByteReader br{ByteSpan(buf)};
    for (uint64_t v : values) EXPECT_EQ(br.GetVarint(), v);
}

TEST(Varint, TruncatedThrows)
{
    Bytes buf{std::byte{0x80}};  // continuation bit with no next byte
    ByteReader br{ByteSpan(buf)};
    EXPECT_THROW(br.GetVarint(), CorruptStreamError);
}

TEST(BitIo, ByteReaderNearSizeMaxLengthDoesNotWrap)
{
    // Regression: the bounds check used to be `pos_ + n <= size`, which
    // wraps for an attacker-declared length near SIZE_MAX (e.g. a corrupt
    // varint frame length) and hands subspan an out-of-range count.
    Bytes buf(16, std::byte{0});
    ByteReader br{ByteSpan(buf)};
    br.GetBytes(8);
    EXPECT_THROW(br.GetBytes(SIZE_MAX), CorruptStreamError);
    EXPECT_THROW(br.GetBytes(SIZE_MAX - 7), CorruptStreamError);
    EXPECT_THROW(br.GetBytes(9), CorruptStreamError);
    // Failed reads consume nothing; the reader stays usable.
    EXPECT_EQ(br.Remaining(), 8u);
    EXPECT_EQ(br.GetBytes(8).size(), 8u);
    EXPECT_THROW(br.Get<uint32_t>(), CorruptStreamError);
}

TEST(BitIo, BitReaderBoundsDoNotWrapNearEnd)
{
    Bytes buf(8, std::byte{0});
    BitReader br{ByteSpan(buf)};
    br.Get(60);
    EXPECT_THROW(br.Get(5), CorruptStreamError);
    EXPECT_EQ(br.Get(4), 0u);  // exactly to the end still works
    EXPECT_THROW(br.Get(1), CorruptStreamError);
}

TEST(BitIo, ReaderErrorsCarryStageAndOffset)
{
    Bytes buf(4, std::byte{0});
    ByteReader br{ByteSpan(buf), "TESTSTAGE"};
    br.GetBytes(2);
    try {
        br.Get<uint64_t>();
        FAIL() << "read past end did not throw";
    } catch (const CorruptStreamError& e) {
        EXPECT_STREQ(e.Stage(), "TESTSTAGE");
        EXPECT_EQ(e.Offset(), 2u);
        EXPECT_NE(std::string(e.what()).find("[TESTSTAGE @ byte 2]"),
                  std::string::npos)
            << e.what();
    }
    // Untagged readers report no stage and kNoOffset.
    ByteReader plain{ByteSpan(buf)};
    try {
        plain.GetBytes(5);
        FAIL() << "read past end did not throw";
    } catch (const CorruptStreamError& e) {
        EXPECT_EQ(e.Stage(), nullptr);
        EXPECT_EQ(e.Offset(), 0u);
    }
}

TEST(Zigzag, RoundTrip32And64)
{
    for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{12345},
                      int64_t{-12345}, int64_t{INT32_MAX}, int64_t{INT32_MIN}}) {
        uint32_t u32 = static_cast<uint32_t>(v);
        EXPECT_EQ(ZigzagDecode(ZigzagEncode(u32)), u32);
        uint64_t u64 = static_cast<uint64_t>(v);
        EXPECT_EQ(ZigzagDecode(ZigzagEncode(u64)), u64);
    }
    // Small magnitudes map to small codes (the property DIFFMS needs).
    EXPECT_EQ(ZigzagEncode(uint32_t(1)), 2u);
    EXPECT_EQ(ZigzagEncode(static_cast<uint32_t>(-1)), 1u);
    EXPECT_EQ(ZigzagEncode(uint32_t(0)), 0u);
}

TEST(Zigzag, Exhaustive16BitRange)
{
    for (uint32_t v = 0; v < (1u << 16); ++v) {
        ASSERT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
        uint32_t high = v << 16;
        ASSERT_EQ(ZigzagDecode(ZigzagEncode(high)), high);
    }
}

TEST(BitFields, TopBitsRoundTrip)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.Next();
        unsigned k = static_cast<unsigned>(rng.NextBelow(65));
        uint64_t top = TopBits(v, k);
        uint64_t rebuilt = WithTopBits(v, top, k);
        ASSERT_EQ(rebuilt, v);
    }
}

TEST(BitFields, Transpose32x32ElementwiseAndInvolution)
{
    Rng rng(6);
    uint32_t rows[32], original[32];
    for (auto& r : rows) r = static_cast<uint32_t>(rng.Next());
    std::memcpy(original, rows, sizeof(rows));
    Transpose32x32(rows);
    for (unsigned j = 0; j < 32; ++j) {
        for (unsigned i = 0; i < 32; ++i) {
            ASSERT_EQ((rows[j] >> i) & 1u, (original[i] >> j) & 1u)
                << "i=" << i << " j=" << j;
        }
    }
    Transpose32x32(rows);
    EXPECT_EQ(std::memcmp(rows, original, sizeof(rows)), 0);
}

TEST(Hash, Deterministic)
{
    EXPECT_EQ(FcmContextHash(1, 2, 3), FcmContextHash(1, 2, 3));
    EXPECT_NE(FcmContextHash(1, 2, 3), FcmContextHash(3, 2, 1));
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Scan, ExclusiveAndInclusive)
{
    std::vector<uint32_t> v{3, 1, 4, 1, 5};
    auto ex = v;
    EXPECT_EQ(ExclusiveScan(std::span<uint32_t>(ex)), 14u);
    EXPECT_EQ(ex, (std::vector<uint32_t>{0, 3, 4, 8, 9}));
    auto inc = v;
    EXPECT_EQ(InclusiveScan(std::span<uint32_t>(inc)), 14u);
    EXPECT_EQ(inc, (std::vector<uint32_t>{3, 4, 8, 9, 14}));
}

TEST(Stats, GeometricMean)
{
    EXPECT_DOUBLE_EQ(GeometricMean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(GeometricMean({8.0}), 8.0);
    EXPECT_EQ(GeometricMean({}), 0.0);
}

TEST(Stats, Median)
{
    EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, GeoMeanOfGeoMeansWeighsDomainsEqually)
{
    // One domain with many files must not dominate.
    std::vector<std::vector<double>> groups{{2, 2, 2, 2, 2, 2, 2, 2}, {8}};
    EXPECT_DOUBLE_EQ(GeoMeanOfGeoMeans(groups), 4.0);
}

TEST(Pareto, FrontIdentification)
{
    std::vector<ScatterPoint> points{
        {"fast-low", 100.0, 1.2},   // on front (fastest)
        {"slow-high", 1.0, 3.0},    // on front (best ratio)
        {"dominated", 50.0, 1.1},   // dominated by fast-low
        {"balanced", 60.0, 2.0},    // on front
    };
    auto front = ParetoFront(points);
    ASSERT_EQ(front.size(), 3u);
    EXPECT_EQ(points[front[0]].label, "fast-low");
    EXPECT_EQ(points[front[1]].label, "balanced");
    EXPECT_EQ(points[front[2]].label, "slow-high");
    EXPECT_FALSE(IsOnParetoFront(points, 2));
    EXPECT_TRUE(IsOnParetoFront(points, 0));
}

TEST(Pareto, EqualPointsBothOnFront)
{
    std::vector<ScatterPoint> points{{"a", 1.0, 1.0}, {"b", 1.0, 1.0}};
    EXPECT_EQ(ParetoFront(points).size(), 2u);
}

}  // namespace
}  // namespace fpc
