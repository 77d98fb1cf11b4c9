/**
 * @file
 * Executor-registry tests: name lookup and error reporting, capability
 * metadata, Options-based resolution, and the paper's cross-device
 * compatibility property asserted across the *whole registry* — every
 * backend must produce byte-identical containers for all four algorithms
 * and decode containers produced by every other backend. Golden sizes and
 * checksums pin the wire format per backend: any change here is a
 * breaking format change and must be deliberate (bump the container
 * version), not a side effect of a performance or scheduling change.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "core/codec.h"
#include "core/container.h"
#include "core/executor.h"
#include "core/orchestrate.h"
#include "core/stream.h"
#include "util/hash.h"

namespace fpc {
namespace {

/**
 * Deterministic smooth low-entropy stream typical of scientific fields:
 * a random walk over 32-bit words with small steps (LCG-driven), plus an
 * LCG byte tail when the size is not word-aligned. Matches the golden
 * table below — do not change one without the other.
 */
Bytes
MakeInput(size_t n_bytes, uint64_t seed)
{
    Bytes data(n_bytes);
    uint64_t state = seed;
    uint32_t x = 0x3f800000u;
    for (size_t i = 0; i + 4 <= n_bytes; i += 4) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        x += static_cast<uint32_t>((state >> 33) & 0x3ff) - 512;
        std::memcpy(data.data() + i, &x, 4);
    }
    for (size_t i = n_bytes & ~size_t{3}; i < n_bytes; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        data[i] = static_cast<std::byte>(state >> 56);
    }
    return data;
}

constexpr Algorithm kAlgorithms[] = {
    Algorithm::kSPspeed,
    Algorithm::kSPratio,
    Algorithm::kDPspeed,
    Algorithm::kDPratio,
};

TEST(ExecutorRegistry, BuiltinBackendsAreRegistered)
{
    const std::vector<std::string> names = ExecutorNames();
    ASSERT_GE(names.size(), 3u);
    EXPECT_NE(std::find(names.begin(), names.end(), "cpu"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "gpusim:4090"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "gpusim:a100"),
              names.end());
    for (const std::string& name : names) {
        EXPECT_EQ(GetExecutor(name).Name(), name);
    }
}

TEST(ExecutorRegistry, LookupIsCaseInsensitive)
{
    EXPECT_EQ(GetExecutor("CPU").Name(), "cpu");
    EXPECT_EQ(GetExecutor("GpuSim:4090").Name(), "gpusim:4090");
    EXPECT_EQ(FindExecutor("GPUSIM:A100"), FindExecutor("gpusim:a100"));
}

TEST(ExecutorRegistry, UnknownNameThrowsListingBackends)
{
    EXPECT_EQ(FindExecutor("cuda:h100"), nullptr);
    try {
        GetExecutor("cuda:h100");
        FAIL() << "GetExecutor did not throw";
    } catch (const UsageError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cuda:h100"), std::string::npos) << what;
        EXPECT_NE(what.find("cpu"), std::string::npos) << what;
        EXPECT_NE(what.find("gpusim:4090"), std::string::npos) << what;
    }
}

TEST(ExecutorRegistry, Capabilities)
{
    const ExecutorCaps cpu = GetExecutor("cpu").Capabilities();
    EXPECT_TRUE(cpu.chunk_parallel);
    EXPECT_FALSE(cpu.device_kernels);
    EXPECT_EQ(cpu.profile, nullptr);

    const ExecutorCaps gpu = GetExecutor("gpusim:4090").Capabilities();
    EXPECT_FALSE(gpu.chunk_parallel);
    EXPECT_TRUE(gpu.device_kernels);
    ASSERT_NE(gpu.profile, nullptr);
    EXPECT_STRNE(gpu.profile, GetExecutor("gpusim:a100").Capabilities()
                                  .profile);
}

TEST(ExecutorRegistry, ResolveExecutorHonoursOptionsPrecedence)
{
    EXPECT_EQ(&ResolveExecutor(Options{}), &DefaultExecutor());
    EXPECT_EQ(DefaultExecutor().Name(), "cpu");

    // with_executor is the only backend spelling: the named backend is
    // resolved verbatim, anything else falls back to the default.
    Options named;
    named.with_executor("gpusim:4090");
    EXPECT_EQ(ResolveExecutor(named).Name(), "gpusim:4090");

    Options by_ref;
    by_ref.executor = &GetExecutor("cpu");
    EXPECT_EQ(&ResolveExecutor(by_ref), &GetExecutor("cpu"));
}

/** Every registered backend must emit byte-identical containers and must
 *  decode containers emitted by every other backend (DESIGN.md: the
 *  cross-device compatibility property). */
TEST(ExecutorMatrix, AllBackendsBitIdenticalAndInteroperable)
{
    const Bytes input = MakeInput((size_t{1} << 18) + 13, 0xc0ffee);
    for (Algorithm algorithm : kAlgorithms) {
        std::vector<Bytes> containers;
        for (const std::string& name : ExecutorNames()) {
            Options options;
            options.executor = &GetExecutor(name);
            containers.push_back(
                Compress(algorithm, ByteSpan(input), options));
            EXPECT_EQ(containers.back(), containers.front())
                << "backend " << name << " diverged on "
                << AlgorithmName(algorithm);
        }
        // Decode the (shared) container on every backend, both APIs.
        for (const std::string& name : ExecutorNames()) {
            Options options;
            options.executor = &GetExecutor(name);
            EXPECT_EQ(Decompress(ByteSpan(containers.front()), options),
                      input)
                << "backend " << name << " failed to decode "
                << AlgorithmName(algorithm);
            Bytes into(input.size());
            DecompressInto(ByteSpan(containers.front()),
                           std::span<std::byte>(into), options);
            EXPECT_EQ(into, input)
                << "backend " << name << " DecompressInto diverged on "
                << AlgorithmName(algorithm);
        }
    }
}

/**
 * Golden sizes and checksums of the compressed streams, asserted for
 * every registered backend (folded in from the former determinism_test
 * golden table when the executor layer was introduced).
 */
TEST(ExecutorGolden, CompressedChecksumsOnEveryBackend)
{
    struct Golden {
        size_t size;
        Algorithm algorithm;
        size_t compressed_bytes;
        uint64_t checksum;
    };
    const Golden kGolden[] = {
        {size_t{1} << 20, Algorithm::kSPspeed, 352288,
         0x8164796542bb988bull},
        {size_t{1} << 20, Algorithm::kSPratio, 339156,
         0x526deebca63acd9bull},
        {size_t{1} << 20, Algorithm::kDPspeed, 718032,
         0x82032e9934e4fad5ull},
        {size_t{1} << 20, Algorithm::kDPratio, 709370,
         0x69a8a775ae901fbcull},
        {(size_t{1} << 18) + 13, Algorithm::kSPspeed, 88117,
         0x6f130cb3aec62125ull},
        {(size_t{1} << 18) + 13, Algorithm::kSPratio, 84488,
         0x5b4e8bd20eba4a96ull},
        {(size_t{1} << 18) + 13, Algorithm::kDPspeed, 179552,
         0xe451776ff8bb5f24ull},
        {(size_t{1} << 18) + 13, Algorithm::kDPratio, 177416,
         0x28355c9472bc8f68ull},
    };

    for (const std::string& name : ExecutorNames()) {
        Options options;
        options.executor = &GetExecutor(name);
        options.threads = 1;
        for (const Golden& g : kGolden) {
            const Bytes input = MakeInput(g.size, 0x5eed + g.size);
            const Bytes compressed =
                Compress(g.algorithm, ByteSpan(input), options);
            EXPECT_EQ(compressed.size(), g.compressed_bytes)
                << name << ", alg " << static_cast<int>(g.algorithm)
                << ", size " << g.size;
            EXPECT_EQ(Checksum64(ByteSpan(compressed)), g.checksum)
                << name << ", alg " << static_cast<int>(g.algorithm)
                << ", size " << g.size;
        }
    }
}

// The chunk placement of both executors, driven from one thread in a
// fixed out-of-order sequence that takes every parking path: chunks
// parked behind a missing predecessor (a raw one among them, parked as
// a pointer into the input), a partial drain that leaves a later entry
// pointing into the parked bytes, direct placement past published but
// unresolved predecessors, and chunks still parked when Finish runs.
// The container must equal a serial encode byte for byte.
TEST(EncodePlanTest, ParkedChunksPlaceLikeASerialEncode)
{
    Bytes input = MakeInput(7 * kChunkSize + 1000, 21);
    uint64_t noise = 99;
    for (size_t i = 2 * kChunkSize; i < 3 * kChunkSize; ++i) {
        noise = noise * 6364136223846793005ull + 1442695040888963407ull;
        input[i] = static_cast<std::byte>(noise >> 56);
    }
    for (Algorithm algorithm : kAlgorithms) {
        const PipelineSpec& spec = GetPipeline(algorithm);
        Bytes work;
        ByteSpan chunk_src = input;
        if (spec.pre.encode != nullptr) {
            ScratchArena pre_scratch;
            chunk_src = EncodePreStage(spec, input, pre_scratch, nullptr,
                                       work);
        }
        std::vector<ScratchArena> arenas(3);
        EncodePlan plan(chunk_src, /*adaptive=*/false, arenas);
        const size_t n = plan.ChunkCount();
        ASSERT_GE(n, 8u);
        // {chunk, worker}: 1, 2 (raw) and 4 park on worker 1; chunk 5's
        // drain places 1 and 2 but not 4 (chunk 3 is missing); 3, 6, 7
        // and any later chunk (DPratio's longer stream) place at once on
        // workers 0 and 2; 4 and 5 are still parked at Finish.
        std::vector<std::pair<size_t, size_t>> order = {
            {1, 1}, {2, 1}, {4, 1}, {0, 0}, {5, 1}, {3, 2}, {6, 0}, {7, 2}};
        for (size_t c = 8; c < n; ++c) order.emplace_back(c, 2);
        for (const auto& [c, worker] : order) {
            plan.EncodeChunkAt(c, worker, spec, &EncodeChunk);
        }
        const Bytes out =
            plan.Finish(algorithm, input.size(), Checksum64(input));
        Options serial;
        serial.threads = 1;
        EXPECT_EQ(out, Compress(algorithm, input, serial))
            << AlgorithmName(algorithm);
        const ContainerView view = ParseContainer(out);
        if (spec.pre.encode == nullptr) {
            EXPECT_EQ(view.chunk_raw[2], 1) << AlgorithmName(algorithm);
        }
        EXPECT_EQ(view.chunk_raw[1], 0) << AlgorithmName(algorithm);
    }
}

TEST(ExecutorStream, FramesCrossBackends)
{
    std::vector<float> frame0(20000);
    std::vector<float> frame1(777);
    for (size_t i = 0; i < frame0.size(); ++i) {
        frame0[i] = 0.25f * static_cast<float>(i % 97);
    }
    for (size_t i = 0; i < frame1.size(); ++i) {
        frame1[i] = 1.0f / static_cast<float>(i + 1);
    }

    StreamCompressor compressor(Algorithm::kSPratio,
                                GetExecutor("gpusim:a100"));
    compressor.PutFloats(frame0);
    compressor.PutFloats(frame1);

    StreamDecompressor decompressor(ByteSpan(compressor.Stream()),
                                    GetExecutor("cpu"));
    EXPECT_EQ(decompressor.NextFloats(), frame0);
    EXPECT_EQ(decompressor.NextFloats(), frame1);
    EXPECT_FALSE(decompressor.HasNext());
}

TEST(ExecutorStream, TypedReadRejectsWrongElementWidthWithoutConsuming)
{
    std::vector<double> doubles(4096, 3.5);
    std::vector<float> floats(512, -1.0f);
    StreamCompressor compressor(Algorithm::kDPspeed);
    compressor.PutDoubles(doubles);
    {
        StreamCompressor sp(Algorithm::kSPspeed);
        sp.PutFloats(floats);
        Bytes stream = compressor.Stream();
        AppendBytes(stream, ByteSpan(sp.Stream()));

        StreamDecompressor decompressor((ByteSpan(stream)));
        // Wrong width: UsageError, and the frame stays unconsumed.
        EXPECT_THROW(decompressor.NextFloats(), UsageError);
        EXPECT_TRUE(decompressor.HasNext());
        EXPECT_EQ(decompressor.NextDoubles(), doubles);
        // Second frame is SP data; the mirror-image misuse also throws.
        EXPECT_THROW(decompressor.NextDoubles(), UsageError);
        EXPECT_EQ(decompressor.NextFloats(), floats);
        EXPECT_FALSE(decompressor.HasNext());
    }
}

TEST(ExecutorTyped, TypedDecodeRejectsWrongWidthContainers)
{
    std::vector<double> values(1000, 2.5);
    const Codec dp = Codec::For<double>(Mode::kSpeed);
    Bytes c = dp.compress(std::span<const double>(values));
    EXPECT_THROW(dp.decompress_as<float>(ByteSpan(c)), UsageError);
    EXPECT_EQ(dp.decompress_as<double>(ByteSpan(c)), values);

    std::vector<float> fvalues(1000, 2.5f);
    const Codec sp = Codec::For<float>(Mode::kRatio);
    Bytes fc = sp.compress(std::span<const float>(fvalues));
    EXPECT_THROW(sp.decompress_as<double>(ByteSpan(fc)), UsageError);
    EXPECT_EQ(sp.decompress_as<float>(ByteSpan(fc)), fvalues);
}

}  // namespace
}  // namespace fpc
