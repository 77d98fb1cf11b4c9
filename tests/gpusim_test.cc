/**
 * @file
 * GPU execution-model tests: warp/block primitive correctness against
 * serial references, and the paper's central cross-device compatibility
 * property — the GPU-path codecs must emit byte-identical compressed
 * streams, and streams must decompress correctly on the *other* device.
 */
#include <gtest/gtest.h>

#include "core/codec.h"
#include "data/datasets.h"
#include "data/fields.h"
#include "gpusim/kernels.h"
#include "gpusim/primitives.h"
#include "util/hash.h"
#include "util/scan.h"

namespace fpc::gpusim {
namespace {

TEST(Primitives, ShuffleXorSwapsLanes)
{
    WarpReg<uint32_t> reg;
    for (unsigned lane = 0; lane < kWarpSize; ++lane) reg[lane] = lane;
    WarpReg<uint32_t> out = ShuffleXor(reg, 5);
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        EXPECT_EQ(out[lane], lane ^ 5u);
    }
}

TEST(Primitives, BallotPacksPredicates)
{
    WarpReg<bool> pred{};
    pred[0] = pred[3] = pred[31] = true;
    EXPECT_EQ(Ballot(pred), (1u << 0) | (1u << 3) | (1u << 31));
}

TEST(Primitives, WarpReduceMaxMatchesSerial)
{
    Rng rng(1);
    for (int t = 0; t < 100; ++t) {
        WarpReg<uint64_t> reg;
        uint64_t expect = 0;
        for (auto& v : reg) {
            v = rng.Next();
            expect = std::max(expect, v);
        }
        EXPECT_EQ(WarpReduceMax(reg), expect);
    }
}

TEST(Primitives, WarpScanMatchesSerial)
{
    Rng rng(2);
    WarpReg<uint32_t> reg;
    for (auto& v : reg) v = static_cast<uint32_t>(rng.NextBelow(1000));
    WarpReg<uint32_t> scanned = WarpInclusiveScan(reg);
    uint32_t running = 0;
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        running += reg[lane];
        EXPECT_EQ(scanned[lane], running);
    }
}

TEST(Primitives, BlockScanMatchesSerialForAllSizes)
{
    Rng rng(3);
    ThreadBlock block(0, 256);
    for (size_t n : {size_t{0}, size_t{1}, size_t{31}, size_t{32},
                     size_t{33}, size_t{1000}, size_t{4096}}) {
        std::vector<uint32_t> values(n);
        for (auto& v : values) v = static_cast<uint32_t>(rng.NextBelow(100));
        std::vector<uint32_t> expected = values;
        uint32_t expected_total =
            ExclusiveScan(std::span<uint32_t>(expected));
        std::vector<uint32_t> actual = values;
        uint32_t total =
            BlockExclusiveScan(block, std::span<uint32_t>(actual));
        EXPECT_EQ(total, expected_total) << n;
        EXPECT_EQ(actual, expected) << n;
    }
}

TEST(Primitives, BlockScanModularWraparound)
{
    // DIFFMS decode relies on modular associativity of the scan.
    ThreadBlock block(0, 256);
    std::vector<uint32_t> values(100, 0xf0000000u);
    std::vector<uint32_t> expected = values;
    ExclusiveScan(std::span<uint32_t>(expected));
    BlockExclusiveScan(block, std::span<uint32_t>(values));
    EXPECT_EQ(values, expected);
}

TEST(Primitives, BitTransposeIsInvolutionAndCorrect)
{
    Rng rng(4);
    WarpReg<uint32_t> rows;
    for (auto& r : rows) r = static_cast<uint32_t>(rng.Next());
    WarpReg<uint32_t> t = WarpBitTranspose(rows);
    // Element check: T[j] bit i == rows[i] bit j.
    for (unsigned j = 0; j < 32; ++j) {
        for (unsigned i = 0; i < 32; ++i) {
            EXPECT_EQ((t[j] >> i) & 1u, (rows[i] >> j) & 1u)
                << "i=" << i << " j=" << j;
        }
    }
    EXPECT_EQ(WarpBitTranspose(t), rows);
}

TEST(Primitives, DecoupledLookbackComputesPrefixes)
{
    const size_t n = 200;
    Rng rng(5);
    std::vector<uint64_t> aggregates(n);
    for (auto& a : aggregates) a = rng.NextBelow(1000);

    DecoupledLookback lookback(n);
    std::vector<uint64_t> prefixes(n);
    // A block whose predecessors have not all published cannot resolve,
    // and the failed attempt changes nothing.
    lookback.PublishAggregate(n - 1, aggregates[n - 1]);
    lookback.PublishAggregate(0, aggregates[0]);
    ASSERT_FALSE(lookback.TryResolvePrefix(n - 1, prefixes[n - 1]));
    // Publish in a scrambled order, then resolve in another order; the
    // protocol must still produce correct exclusive prefixes.
    for (size_t b = 0; b < n; ++b) {
        lookback.PublishAggregate(b, aggregates[b]);
    }
    for (size_t b = n; b-- > 0;) {
        ASSERT_TRUE(lookback.TryResolvePrefix(b, prefixes[b]));
    }
    uint64_t running = 0;
    for (size_t b = 0; b < n; ++b) {
        EXPECT_EQ(prefixes[b], running);
        running += aggregates[b];
    }
}

TEST(SharedMemory, AllocatesAndEnforcesCapacity)
{
    SharedMemory shared;
    auto a = shared.Alloc<uint32_t>(1024);
    EXPECT_EQ(a.size(), 1024u);
    a[0] = 42;
    auto b = shared.Alloc<uint64_t>(1024);
    b[1023] = 7;
    EXPECT_EQ(a[0], 42u);  // no overlap
    shared.Reset();
    EXPECT_EQ(shared.Used(), 0u);
}

// ---- Cross-device compatibility (the paper's headline property) ----

class CrossDevice : public ::testing::TestWithParam<size_t> {};

const Algorithm kAll[] = {Algorithm::kSPspeed, Algorithm::kSPratio,
                          Algorithm::kDPspeed, Algorithm::kDPratio};

TEST_P(CrossDevice, IdenticalStreamsAndInterchangeableDecode)
{
    Algorithm algorithm = kAll[GetParam()];
    Options cpu;
    cpu.with_executor("cpu");
    Options gpu;
    gpu.with_executor("gpusim:4090");

    std::vector<Bytes> inputs;
    {
        auto f = data::ToFloats(data::SmoothField(30000, 8, 5, 0.002));
        Bytes b(f.size() * 4);
        std::memcpy(b.data(), f.data(), b.size());
        inputs.push_back(std::move(b));
    }
    {
        auto d = data::QuantizedObservations(20000, 9, 1.0 / 1024.0);
        Bytes b(d.size() * 8);
        std::memcpy(b.data(), d.data(), b.size());
        inputs.push_back(std::move(b));
    }
    {
        Rng rng(10);
        Bytes b(50001);
        for (auto& x : b) x = static_cast<std::byte>(rng.Next() & 0xff);
        inputs.push_back(std::move(b));
    }

    for (const Bytes& input : inputs) {
        Bytes from_cpu = Compress(algorithm, ByteSpan(input), cpu);
        Bytes from_gpu = Compress(algorithm, ByteSpan(input), gpu);
        // Byte-identical compressed streams.
        ASSERT_EQ(from_cpu, from_gpu) << AlgorithmName(algorithm);
        // Compress on one device, decompress on the other.
        EXPECT_EQ(Decompress(ByteSpan(from_cpu), gpu), input);
        EXPECT_EQ(Decompress(ByteSpan(from_gpu), cpu), input);
    }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CrossDevice,
                         ::testing::Range(size_t{0}, size_t{4}),
                         [](const auto& info) {
                             return std::string(
                                 AlgorithmName(kAll[info.param]));
                         });

// Constant input gives every value a distance-1 match, so each FCM chain
// runs back to index 0: a decoder that chases chains per element is
// quadratic here, while the shared O(n) resolver takes milliseconds.
TEST(CrossDevice, DpRatioConstantMegaValuesRoundTrip)
{
    const std::vector<double> values(size_t{1} << 20, 2.5);
    Bytes input(values.size() * sizeof(double));
    std::memcpy(input.data(), values.data(), input.size());
    Options cpu;
    cpu.with_executor("cpu");
    Options gpu;
    gpu.with_executor("gpusim:4090");
    const Bytes from_gpu = Compress(Algorithm::kDPratio, ByteSpan(input), gpu);
    EXPECT_EQ(from_gpu, Compress(Algorithm::kDPratio, ByteSpan(input), cpu));
    EXPECT_EQ(Decompress(ByteSpan(from_gpu), gpu), input);
}

TEST(Device, LaunchRunsEveryBlock)
{
    Device device(Rtx4090Profile());
    std::vector<std::atomic<int>> hits(64);
    device.Launch(64, [&](ThreadBlock& block) {
        hits[block.BlockId()].fetch_add(1);
        EXPECT_EQ(block.NumThreads(), 256u);
        EXPECT_EQ(block.NumWarps(), 8u);
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
    EXPECT_EQ(device.BlocksExecuted(), 64u);
}

TEST(Device, ProfilesDiffer)
{
    EXPECT_GT(Rtx4090Profile().num_sms, A100Profile().num_sms);
    EXPECT_LT(Rtx4090Profile().blocks_per_sm, A100Profile().blocks_per_sm);
}

}  // namespace
}  // namespace fpc::gpusim
