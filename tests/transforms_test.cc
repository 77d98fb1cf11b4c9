/**
 * @file
 * Unit and property tests for the seven paper transformations. Includes
 * the worked examples from the paper's Figures 2-6 as known vectors, and
 * parameterized round-trip sweeps over data distributions, sizes (chunk
 * boundaries, odd tails), and word patterns.
 */
#include <gtest/gtest.h>

#include "core/codec.h"
#include "data/fields.h"
#include "transforms/adaptive_k.h"
#include "transforms/bitmap_codec.h"
#include "transforms/transforms.h"
#include "util/bitio.h"
#include "util/bitpack.h"
#include "util/hash.h"

namespace fpc::tf {
namespace {

using EncodeFn = void (*)(ByteSpan, Bytes&);

struct NamedStage {
    const char* name;
    EncodeFn encode;
    EncodeFn decode;
};

const NamedStage kAllStages[] = {
    {"DIFFMS32", DiffmsEncode32, DiffmsDecode32},
    {"DIFFMS64", DiffmsEncode64, DiffmsDecode64},
    {"MPLG32", MplgEncode32, MplgDecode32},
    {"MPLG64", MplgEncode64, MplgDecode64},
    {"BIT32", BitEncode32, BitDecode32},
    {"BIT64", BitEncode64, BitDecode64},
    {"RZE", RzeEncode, RzeDecode},
    {"FCM", FcmEncode, FcmDecode},
    {"RAZE64", RazeEncode64, RazeDecode64},
    {"RARE64", RareEncode64, RareDecode64},
    {"RAZE32", RazeEncode32, RazeDecode32},
    {"RARE32", RareEncode32, RareDecode32},
};

Bytes
MakeBytes(const std::string& kind, size_t n, uint64_t seed)
{
    Rng rng(seed);
    Bytes data(n, std::byte{0});
    if (kind == "zeros") return data;
    if (kind == "random") {
        for (auto& b : data) b = static_cast<std::byte>(rng.Next() & 0xff);
    } else if (kind == "smooth_f32") {
        std::vector<float> v(n / 4);
        float x = 1.0f;
        for (auto& f : v) {
            x += 0.001f * static_cast<float>(rng.NextGaussian());
            f = x;
        }
        if (!v.empty()) std::memcpy(data.data(), v.data(), v.size() * 4);
        for (size_t i = v.size() * 4; i < n; ++i) {
            data[i] = static_cast<std::byte>(rng.Next() & 0xff);
        }
    } else if (kind == "smooth_f64") {
        std::vector<double> v(n / 8);
        double x = -5.0;
        for (auto& f : v) {
            x += 0.0001 * rng.NextGaussian();
            f = x;
        }
        if (!v.empty()) std::memcpy(data.data(), v.data(), v.size() * 8);
        for (size_t i = v.size() * 8; i < n; ++i) {
            data[i] = static_cast<std::byte>(rng.Next() & 0xff);
        }
    } else if (kind == "repeats_f64") {
        std::vector<double> pool{1.5, -2.25, 3.125, 0.0, 1e300};
        std::vector<double> v(n / 8);
        for (auto& f : v) f = pool[rng.NextBelow(pool.size())];
        if (!v.empty()) std::memcpy(data.data(), v.data(), v.size() * 8);
    } else if (kind == "alternating_signs") {
        std::vector<float> v(n / 4);
        for (size_t i = 0; i < v.size(); ++i) {
            v[i] = (i % 2 ? -1.0f : 1.0f) *
                   (1.0f + 0.01f * static_cast<float>(rng.NextDouble()));
        }
        if (!v.empty()) std::memcpy(data.data(), v.data(), v.size() * 4);
    } else if (kind == "special_values") {
        std::vector<float> pool{0.0f,
                                -0.0f,
                                std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity(),
                                std::numeric_limits<float>::quiet_NaN(),
                                std::numeric_limits<float>::denorm_min(),
                                std::numeric_limits<float>::max()};
        std::vector<float> v(n / 4);
        for (auto& f : v) f = pool[rng.NextBelow(pool.size())];
        if (!v.empty()) std::memcpy(data.data(), v.data(), v.size() * 4);
    }
    return data;
}

class StageRoundTrip
    : public ::testing::TestWithParam<
          std::tuple<size_t, std::string, size_t>> {};

TEST_P(StageRoundTrip, EncodeDecodeIdentity)
{
    auto [stage_idx, kind, size] = GetParam();
    const NamedStage& stage = kAllStages[stage_idx];
    Bytes input = MakeBytes(kind, size, 0xfeed + size);

    Bytes coded;
    stage.encode(ByteSpan(input), coded);
    Bytes output;
    stage.decode(ByteSpan(coded), output);
    ASSERT_EQ(output.size(), input.size()) << stage.name;
    EXPECT_EQ(output, input) << stage.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllStages, StageRoundTrip,
    ::testing::Combine(
        ::testing::Range(size_t{0}, std::size(kAllStages)),
        ::testing::Values("zeros", "random", "smooth_f32", "smooth_f64",
                          "repeats_f64", "alternating_signs",
                          "special_values"),
        ::testing::Values(size_t{0}, size_t{1}, size_t{7}, size_t{8},
                          size_t{513}, size_t{4096}, size_t{16384},
                          size_t{16387})),
    [](const auto& info) {
        return std::string(kAllStages[std::get<0>(info.param)].name) + "_" +
               std::get<1>(info.param) + "_" +
               std::to_string(std::get<2>(info.param));
    });

// ---- Paper Figure 2: DIFFMS worked example ----
TEST(Diffms, PaperFigure2)
{
    // Three consecutive single-precision values with close exponents turn
    // into small magnitude-sign codes with many leading zeros.
    std::vector<float> values{3.1415f, 3.1413f, 3.1416f};
    Bytes input(values.size() * 4);
    std::memcpy(input.data(), values.data(), input.size());

    Bytes coded;
    DiffmsEncode32(ByteSpan(input), coded);
    // Skip the fixed 8-byte size prefix.
    ASSERT_EQ(ReadRaw<uint64_t>(ByteSpan(coded), 0), 12u);
    uint32_t w0 = ReadRaw<uint32_t>(ByteSpan(coded), 8);
    uint32_t w1 = ReadRaw<uint32_t>(ByteSpan(coded), 12);
    uint32_t w2 = ReadRaw<uint32_t>(ByteSpan(coded), 16);

    // First element is preserved (zigzag of the value itself, since the
    // implicit predecessor is 0).
    EXPECT_EQ(w0, ZigzagEncode(BitCastTo<uint32_t>(values[0])));
    // Subsequent codes have many leading zeros (small differences).
    EXPECT_GE(LeadingZeros(w1), 8u);
    EXPECT_GE(LeadingZeros(w2), 8u);
    // The sign lands in the least significant bit: value 1 decreased
    // (negative difference -> LSB 1), value 2 increased (LSB 0).
    EXPECT_EQ(w1 & 1u, 1u);
    EXPECT_EQ(w2 & 1u, 0u);

    Bytes output;
    DiffmsDecode32(ByteSpan(coded), output);
    EXPECT_EQ(output, input);
}

// ---- Paper Figure 3: MPLG removes common leading zeros ----
TEST(Mplg, EliminatesCommonLeadingZeros)
{
    // 128 words (one 512-byte subchunk), max has 12 leading zeros.
    std::vector<uint32_t> words(128);
    Rng rng(5);
    for (auto& w : words) w = static_cast<uint32_t>(rng.NextBelow(1u << 20));
    words[0] = (1u << 19) | 123;  // ensures the max has exactly 12 lz
    Bytes input(words.size() * 4);
    std::memcpy(input.data(), words.data(), input.size());

    Bytes coded;
    MplgEncode32(ByteSpan(input), coded);
    // Expected: 8-byte size prefix + 1 header byte + 128*20 bits.
    EXPECT_EQ(coded.size(), 8 + 1 + (128 * 20 + 7) / 8);

    Bytes output;
    MplgDecode32(ByteSpan(coded), output);
    EXPECT_EQ(output, input);
}

TEST(Mplg, EnhancementHandlesFullWidthValues)
{
    // All-ones-ish values: no leading zeros, triggering the extra
    // magnitude-sign conversion (paper Section 3.1 enhancement).
    std::vector<uint32_t> words(128, 0xffffffffu);
    Bytes input(words.size() * 4);
    std::memcpy(input.data(), words.data(), input.size());

    Bytes coded;
    MplgEncode32(ByteSpan(input), coded);
    Bytes output;
    MplgDecode32(ByteSpan(coded), output);
    EXPECT_EQ(output, input);
    // 0xffffffff zigzag-encodes to 1 (31 leading zeros): the subchunk
    // packs to one bit per word instead of 32.
    EXPECT_LT(coded.size(), input.size() / 8);
}

TEST(Mplg, PerSubchunkWidths)
{
    // Two subchunks with very different magnitudes compress with
    // different widths (the paper's subchunk remedy).
    std::vector<uint32_t> words(256);
    for (size_t i = 0; i < 128; ++i) words[i] = 3;          // 2-bit wide
    for (size_t i = 128; i < 256; ++i) words[i] = 0xffffff;  // 24-bit wide
    Bytes input(words.size() * 4);
    std::memcpy(input.data(), words.data(), input.size());

    Bytes coded;
    MplgEncode32(ByteSpan(input), coded);
    size_t expected = 8 + 2 + (128 * 2 + 128 * 24 + 7) / 8;
    EXPECT_EQ(coded.size(), expected);
}

// ---- Paper Figure 4: BIT groups equal bit positions ----
TEST(Bit, TransposesPlanesMsbFirst)
{
    // One word with only the MSB set: after transposition the very first
    // stream bit is 1 and everything else is 0.
    std::vector<uint32_t> words{0x80000000u, 0, 0, 0, 0, 0, 0, 0};
    Bytes input(words.size() * 4);
    std::memcpy(input.data(), words.data(), input.size());

    Bytes coded;
    BitEncode32(ByteSpan(input), coded);
    // 8-byte size prefix + 32 bytes of planes.
    ASSERT_EQ(coded.size(), 8u + 32u);
    EXPECT_EQ(static_cast<uint8_t>(coded[8]), 0x01);  // first plane, bit 0
    for (size_t i = 9; i < coded.size(); ++i) {
        EXPECT_EQ(coded[i], std::byte{0});
    }

    Bytes output;
    BitDecode32(ByteSpan(coded), output);
    EXPECT_EQ(output, input);
}

// ---- Paper Figure 5: RZE drops zero bytes ----
TEST(Bit, FastAndSlowPathsEmitIdenticalBytes)
{
    // The 32x32 block fast path triggers when nw %% 32 == 0; padding the
    // same data by one word forces the bit-granular fallback. Dropping
    // the last word of the fast output must equal the slow output of the
    // truncated input... instead, simply compare against the gpusim-free
    // definition: encode nw = 128 words (fast) and nw = 127 of the same
    // words (slow) and check the overlapping plane prefixes per plane.
    Rng rng(31);
    std::vector<uint32_t> words(128);
    for (auto& w : words) w = static_cast<uint32_t>(rng.Next());
    Bytes fast_in(words.size() * 4);
    std::memcpy(fast_in.data(), words.data(), fast_in.size());

    Bytes coded;
    BitEncode32(ByteSpan(fast_in), coded);
    // Definition check: bit p*nw + i of the payload == word i bit (31-p).
    ByteSpan payload = ByteSpan(coded).subspan(8);
    const size_t nw = words.size();
    for (unsigned p = 0; p < 32; ++p) {
        for (size_t i = 0; i < nw; ++i) {
            size_t bit = p * nw + i;
            unsigned actual =
                (static_cast<uint8_t>(payload[bit / 8]) >> (bit % 8)) & 1u;
            unsigned expected = (words[i] >> (31 - p)) & 1u;
            ASSERT_EQ(actual, expected) << "p=" << p << " i=" << i;
        }
    }
    Bytes output;
    BitDecode32(ByteSpan(coded), output);
    EXPECT_EQ(output, fast_in);
}

TEST(Rze, DropsZeroBytesAndRestores)
{
    Bytes input(64, std::byte{0});
    input[0] = std::byte{0xaa};
    input[33] = std::byte{0xbb};
    input[63] = std::byte{0xcc};

    Bytes coded;
    RzeEncode(ByteSpan(input), coded);
    EXPECT_LT(coded.size(), input.size());
    Bytes output;
    RzeDecode(ByteSpan(coded), output);
    EXPECT_EQ(output, input);
}

TEST(Rze, IncompressibleDataSurvives)
{
    Bytes input = MakeBytes("random", 16384, 77);
    Bytes coded;
    RzeEncode(ByteSpan(input), coded);
    Bytes output;
    RzeDecode(ByteSpan(coded), output);
    EXPECT_EQ(output, input);
}

TEST(BitmapCodec, RecursiveLevels)
{
    // A full chunk's bitmap: 16384 bits = 2048 bytes -> levels of 256, 32,
    // 4 bytes (the paper's 2048 -> 256 -> 32 bit reduction).
    Bytes bitmap(2048, std::byte{0});
    bitmap[100] = std::byte{0xff};
    bitmap[2000] = std::byte{0x0f};

    Bytes coded;
    CompressBitmap(ByteSpan(bitmap), coded);
    // Mostly-constant bitmap compresses far below its raw size.
    EXPECT_LT(coded.size(), 64u);

    ByteReader br{ByteSpan(coded)};
    Bytes restored = DecompressBitmap(br, bitmap.size());
    EXPECT_EQ(restored, bitmap);
    EXPECT_EQ(br.Remaining(), 0u);
}

TEST(BitmapCodec, SizesUnder4BytesStoredVerbatim)
{
    for (size_t n : {size_t{0}, size_t{1}, size_t{4}}) {
        Bytes bitmap(n, std::byte{0x5a});
        Bytes coded;
        CompressBitmap(ByteSpan(bitmap), coded);
        EXPECT_EQ(coded.size(), n);
        ByteReader br{ByteSpan(coded)};
        EXPECT_EQ(DecompressBitmap(br, n), bitmap);
    }
}

// ---- Paper Figure 6: FCM matches repeated values via hashes ----
TEST(Fcm, DetectsRepeatedPattern)
{
    // a b a b c a b : repetitions of (a,b) after enough context should be
    // matched, producing zero values and non-zero distances.
    std::vector<double> pattern{1.5, 2.5};
    std::vector<double> values(512);
    for (size_t i = 0; i < values.size(); ++i) {
        values[i] = pattern[i % 2];
    }
    Bytes input(values.size() * 8);
    std::memcpy(input.data(), values.data(), input.size());

    Bytes coded;
    FcmEncode(ByteSpan(input), coded);
    // Output is exactly 2x input + the 8-byte size prefix.
    EXPECT_EQ(coded.size(), 8 + 2 * input.size());

    // Count matches in the distance array (second half).
    size_t matches = 0;
    for (size_t i = 0; i < values.size(); ++i) {
        uint64_t dist =
            ReadRaw<uint64_t>(ByteSpan(coded), 8 + input.size() + i * 8);
        if (dist != 0) ++matches;
    }
    // Nearly everything after the warm-up should match.
    EXPECT_GT(matches, values.size() / 2);

    Bytes output;
    FcmDecode(ByteSpan(coded), output);
    EXPECT_EQ(output, input);
}

TEST(Fcm, NoFalseMatchesOnDistinctValues)
{
    std::vector<double> values(256);
    for (size_t i = 0; i < values.size(); ++i) {
        values[i] = static_cast<double>(i) * 1.000001;
    }
    Bytes input(values.size() * 8);
    std::memcpy(input.data(), values.data(), input.size());

    Bytes coded;
    FcmEncode(ByteSpan(input), coded);
    for (size_t i = 0; i < values.size(); ++i) {
        uint64_t dist =
            ReadRaw<uint64_t>(ByteSpan(coded), 8 + input.size() + i * 8);
        EXPECT_EQ(dist, 0u) << "value " << i;
        uint64_t v = ReadRaw<uint64_t>(ByteSpan(coded), 8 + i * 8);
        EXPECT_EQ(v, BitCastTo<uint64_t>(values[i]));
    }
}

TEST(Fcm, RejectsCorruptDistances)
{
    std::vector<double> values{1.0, 2.0, 3.0};
    Bytes input(values.size() * 8);
    std::memcpy(input.data(), values.data(), input.size());
    Bytes coded;
    FcmEncode(ByteSpan(input), coded);
    // Corrupt the first distance to point beyond the beginning.
    uint64_t bad = 5;
    std::memcpy(coded.data() + 8 + input.size(), &bad, 8);
    Bytes output;
    EXPECT_THROW(FcmDecode(ByteSpan(coded), output), CorruptStreamError);
}

// ---- FCM across thread counts ----

// The serial chained-table encoder the partitioned one replaced, kept as
// the reference: FcmEncode's bytes must not depend on the thread count.
Bytes
SerialFcmEncode(ByteSpan in)
{
    const size_t n = in.size() / 8;
    std::vector<uint64_t> values = LoadWords<uint64_t>(in);
    std::vector<uint64_t> hashes(n);
    for (size_t i = 0; i < n; ++i) {
        hashes[i] = FcmContextHash(i >= 1 ? values[i - 1] : 0,
                                   i >= 2 ? values[i - 2] : 0,
                                   i >= 3 ? values[i - 3] : 0);
    }
    constexpr uint32_t kNil = 0xffffffffu;
    size_t cap = 16;
    while (cap < 2 * n) cap *= 2;
    std::vector<uint32_t> heads(cap, kNil);
    std::vector<uint32_t> link(n);
    std::vector<uint64_t> out_values(n), out_dists(n);
    for (size_t i = 0; i < n; ++i) {
        const size_t slot = static_cast<size_t>(hashes[i]) & (cap - 1);
        size_t probes = 0;
        out_values[i] = values[i];
        for (uint32_t j = heads[slot]; j != kNil; j = link[j]) {
            if (hashes[j] != hashes[i]) continue;
            if (values[j] == values[i]) {
                out_values[i] = 0;
                out_dists[i] = i - j;
                break;
            }
            if (++probes == 4) break;
        }
        link[i] = heads[slot];
        heads[slot] = static_cast<uint32_t>(i);
    }
    const uint64_t size = in.size();
    Bytes out(sizeof(size));
    std::memcpy(out.data(), &size, sizeof(size));
    AppendBytes(out, AsBytes(out_values));
    AppendBytes(out, AsBytes(out_dists));
    AppendBytes(out, in.subspan(n * 8));
    return out;
}

/** @p words 64-bit words of one kind plus @p tail random trailing bytes. */
Bytes
FcmInput(const std::string& kind, size_t words, size_t tail, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v(words);
    if (kind == "constant") {
        std::fill(v.begin(), v.end(), 2.5);
    } else if (kind == "periodic") {
        // Period 1000: every match is 1000 back, so matches cross segment
        // and partition boundaries.
        for (size_t i = 0; i < words; ++i) v[i] = std::sin(0.001 * (i % 1000));
    } else if (kind == "repeat16") {
        std::vector<double> pool(16);
        for (double& p : pool) p = rng.NextGaussian();
        for (double& x : v) x = pool[rng.NextBelow(pool.size())];
    } else if (kind == "random") {
        for (double& x : v) x = BitCastTo<double>(rng.Next());
    } else {  // "field": a smooth DP field, as the checkpoint bench uses
        v = data::SmoothField(words, seed, 3, 1e-7);
    }
    Bytes out(words * 8 + tail);
    if (words > 0) std::memcpy(out.data(), v.data(), words * 8);
    for (size_t i = words * 8; i < out.size(); ++i) {
        out[i] = static_cast<std::byte>(rng.Next() & 0xff);
    }
    return out;
}

TEST(FcmThreads, EncodeMatchesSerialOracleAtEveryThreadCount)
{
    // Sizes span the degenerate heads (no context yet), one partition,
    // several partitions on one thread, 16 partitions on up to seven
    // threads, and 2 Mi words (64 partitions). The tails cover 0-7 bytes.
    const size_t kSizes[] = {0,     1,      2,       3,      4,
                             100,   40000,  300001,  (size_t{2} << 20) + 5};
    size_t tail = 0;
    for (const char* kind :
         {"constant", "periodic", "repeat16", "random", "field"}) {
        for (size_t words : kSizes) {
            tail = (tail + 3) % 8;
            const Bytes input = FcmInput(kind, words, tail, words + tail);
            const Bytes expected = SerialFcmEncode(ByteSpan(input));
            for (int threads : {1, 2, 3, 4, 7}) {
                SCOPED_TRACE(std::string(kind) + " words=" +
                             std::to_string(words) + " tail=" +
                             std::to_string(tail) + " threads=" +
                             std::to_string(threads));
                ScratchArena scratch;
                scratch.SetStageThreads(threads);
                Bytes coded;
                FcmEncode(ByteSpan(input), coded, scratch);
                ASSERT_EQ(coded, expected);
                Bytes decoded;
                FcmDecode(ByteSpan(coded), decoded, scratch);
                ASSERT_EQ(decoded, input);
            }
        }
    }
}

TEST(FcmThreads, DpRatioContainerIdenticalAcrossThreadCounts)
{
    const Bytes input = FcmInput("repeat16", size_t{1} << 20, 5, 42);
    Options one;
    one.with_threads(1);
    const Bytes serial = Compress(Algorithm::kDPratio, ByteSpan(input), one);
    EXPECT_EQ(Compress(Algorithm::kDPratio, ByteSpan(input), Options{}),
              serial);
    EXPECT_EQ(Decompress(ByteSpan(serial), Options{}), input);
}

// The parallel decoder must report the bad distance a serial in-order
// decode meets first, wherever the threads' segments fall.
TEST(Fcm, RejectsCorruptDistancesInFirstMiddleAndLastSegment)
{
    const size_t n = size_t{1} << 18;  // four 64 Ki-word segments
    const Bytes input = FcmInput("field", n, 3, 7);
    Bytes coded;
    FcmEncode(ByteSpan(input), coded);
    const auto offset_of = [n](size_t i) { return 8 + (n + i) * 8; };
    const auto corrupt = [&](std::initializer_list<size_t> indices) {
        Bytes bad = coded;
        for (size_t i : indices) {
            const uint64_t dist = i + 1;  // points before index 0
            std::memcpy(bad.data() + offset_of(i), &dist, 8);
        }
        return bad;
    };
    for (int threads : {1, 4, 7}) {
        ScratchArena scratch;
        scratch.SetStageThreads(threads);
        for (const auto& [bad, lowest] :
             {std::pair{corrupt({5}), size_t{5}},
              std::pair{corrupt({n / 2 + 9}), n / 2 + 9},
              std::pair{corrupt({n - 2}), n - 2},
              std::pair{corrupt({n - 2, n / 2 + 9}), n / 2 + 9},
              std::pair{corrupt({n - 2, n / 2 + 9, 5}), size_t{5}}}) {
            Bytes output;
            try {
                FcmDecode(ByteSpan(bad), output, scratch);
                ADD_FAILURE() << "no error, threads=" << threads;
            } catch (const CorruptStreamError& e) {
                EXPECT_STREQ(e.Stage(), "FCM");
                EXPECT_EQ(e.Offset(), offset_of(lowest))
                    << "threads=" << threads;
            }
        }
    }
}

// ---- Paper Figure 7: RAZE/RARE adaptive split ----
TEST(AdaptiveK, PicksZeroForRandomData)
{
    // Uniformly random words have ~0 leading zeros: best k is 0 or tiny.
    std::vector<unsigned> hist(65, 0);
    hist[0] = 2048;
    EXPECT_EQ(ChooseAdaptiveK(hist, 2048, 64), 0u);
}

TEST(AdaptiveK, PicksFullWidthForZeroData)
{
    std::vector<unsigned> hist(65, 0);
    hist[64] = 2048;
    EXPECT_EQ(ChooseAdaptiveK(hist, 2048, 64), 64u);
}

TEST(AdaptiveK, SplitsMixedData)
{
    // Half the words have >= 40 leading zeros, half none: the optimum
    // keeps the cheap low bits and drops the top 40 for half the words.
    std::vector<unsigned> hist(65, 0);
    hist[0] = 1024;
    hist[40] = 1024;
    unsigned k = ChooseAdaptiveK(hist, 2048, 64);
    EXPECT_EQ(k, 40u);
}

TEST(Raze, CompressesTopZeroBits)
{
    // Doubles with random mantissa bits but tiny magnitudes: RZE at byte
    // granularity does poorly, RAZE's split shines.
    Rng rng(99);
    std::vector<uint64_t> words(2048);
    for (auto& w : words) w = rng.Next() >> 24;  // 24 leading zeros
    Bytes input(words.size() * 8);
    std::memcpy(input.data(), words.data(), input.size());

    Bytes coded;
    RazeEncode64(ByteSpan(input), coded);
    // ~24 of 64 bits per word removed (bitmap overhead is tiny here).
    EXPECT_LT(coded.size(), input.size() * 45 / 64);
    Bytes output;
    RazeDecode64(ByteSpan(coded), output);
    EXPECT_EQ(output, input);
}

TEST(Rare, CompressesSharedPrefixes)
{
    // Words sharing their top 32 bits with the previous word.
    Rng rng(101);
    std::vector<uint64_t> words(2048);
    uint64_t top = 0x3ff5550000000000ull;
    for (auto& w : words) w = top | (rng.Next() & 0xffffffffull);
    Bytes input(words.size() * 8);
    std::memcpy(input.data(), words.data(), input.size());

    Bytes coded;
    RareEncode64(ByteSpan(input), coded);
    EXPECT_LT(coded.size(), input.size() * 42 / 64);
    Bytes output;
    RareDecode64(ByteSpan(coded), output);
    EXPECT_EQ(output, input);
}

TEST(Transforms, ComposedPipelineMatchesStagewiseInverse)
{
    // SPratio stage chain applied manually: DIFFMS -> BIT -> RZE, then
    // inverses in reverse order (paper Section 3).
    Bytes input = MakeBytes("smooth_f32", 16384, 2024);
    Bytes s1, s2, s3;
    DiffmsEncode32(ByteSpan(input), s1);
    BitEncode32(ByteSpan(s1), s2);
    RzeEncode(ByteSpan(s2), s3);
    EXPECT_LT(s3.size(), input.size());

    Bytes r2, r1, r0;
    RzeDecode(ByteSpan(s3), r2);
    EXPECT_EQ(r2, s2);
    BitDecode32(ByteSpan(r2), r1);
    EXPECT_EQ(r1, s1);
    DiffmsDecode32(ByteSpan(r1), r0);
    EXPECT_EQ(r0, input);
}

}  // namespace
}  // namespace fpc::tf
