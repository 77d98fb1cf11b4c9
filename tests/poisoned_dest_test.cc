/**
 * @file
 * Every decode path writes every byte of its output. Output buffers are
 * allocated uninitialised (util/common.h DefaultInitAllocator) and never
 * zero-filled, so a byte a decoder forgot would surface as whatever the
 * allocator left there. With no MSan or valgrind to catch such reads, the
 * test makes "whatever was there" a known pattern instead: global
 * operator new fills each allocation with the current poison byte, and
 * DecompressInto destinations are pre-filled with it. Each round trip
 * runs twice, under 0xA5 and 0x5A; both must reproduce the input byte
 * for byte, and both compresses must emit identical containers (the
 * container buffer is uninitialised too).
 *
 * Matrix: all four algorithms plus mode=auto at both element widths, on
 * the cpu and gpusim:4090 backends, at 1 and 4 threads, over an empty
 * input, one element, a size that is not a multiple of 16 KiB, and
 * incompressible data (every chunk stored raw). Paths: DecompressInto,
 * Decompress, the ParallelStreamDecoder pool (the serial single-arena
 * driver), the sequential StreamDecompressor, and Codec::decompress_range.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/codec.h"
#include "core/executor.h"
#include "core/stream.h"
#include "util/byte_source.h"

namespace {

std::atomic<unsigned char> g_poison{0xA5};

}  // namespace

void*
operator new(std::size_t size)
{
    void* p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr) throw std::bad_alloc();
    std::memset(p, g_poison.load(std::memory_order_relaxed), size);
    return p;
}

void*
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

// Bytes buffers of kLargeBuffer bytes and more are page-aligned
// (util/common.h AllocateLargeBuffer): poison those too.
void*
operator new(std::size_t size, std::align_val_t align)
{
    const auto a = static_cast<std::size_t>(align);
    void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
    if (p == nullptr) throw std::bad_alloc();
    std::memset(p, g_poison.load(std::memory_order_relaxed), size);
    return p;
}

void
operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace fpc {
namespace {

constexpr unsigned char kPoisons[] = {0xA5, 0x5A};
constexpr const char* kBackends[] = {"cpu", "gpusim:4090"};
constexpr int kThreads[] = {1, 4};

struct Mode {
    Algorithm algorithm;
    bool adaptive;
};
constexpr Mode kModes[] = {
    {Algorithm::kSPspeed, false}, {Algorithm::kSPratio, false},
    {Algorithm::kDPspeed, false}, {Algorithm::kDPratio, false},
    {Algorithm::kSPspeed, true},  {Algorithm::kDPspeed, true},
};

/** Smooth random walk (compressible), or uniform random bytes, whose
 *  every chunk every pipeline stores raw. */
Bytes
MakeInput(size_t n_bytes, bool incompressible, uint64_t seed)
{
    Bytes data(n_bytes);
    uint64_t state = seed;
    uint32_t x = 0x3f800000u;
    for (size_t i = 0; i < n_bytes; i += 4) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        x += static_cast<uint32_t>((state >> 33) & 0x3ff) - 512;
        const uint32_t word =
            incompressible ? static_cast<uint32_t>(state >> 32) : x;
        std::memcpy(data.data() + i, &word, std::min<size_t>(4, n_bytes - i));
    }
    return data;
}

struct Case {
    std::string name;
    Bytes input;
};

/** Inputs for element width @p word: empty, one element, not a multiple
 *  of 16 KiB, and all-raw. Sizes stay whole elements so ranged reads and
 *  the seek index apply. */
std::vector<Case>
Cases(size_t word)
{
    return {
        {"empty", Bytes()},
        {"one element", MakeInput(word, false, 1)},
        {"3 chunks + 1000 B", MakeInput(3 * kChunkSize + 1000, false, 2)},
        {"all raw", MakeInput(2 * kChunkSize + 3 * word, true, 3)},
    };
}

/** Sets the calling thread's OpenMP team size (gpusim launches and the
 *  cpu executor's default both follow it) for one scope. */
class ScopedOmpThreads {
 public:
    explicit ScopedOmpThreads(int threads)
    {
#ifdef _OPENMP
        saved_ = omp_get_max_threads();
        omp_set_num_threads(threads);
#else
        (void)threads;
#endif
    }
    ~ScopedOmpThreads()
    {
#ifdef _OPENMP
        omp_set_num_threads(saved_);
#endif
    }

 private:
    int saved_ = 1;
};

/** Runs @p body(options, input, label) over the whole matrix, once per
 *  poison pattern, with the pattern in force. */
template <typename Body>
void
ForEachConfig(const Body& body)
{
    for (const Mode& mode : kModes) {
        const size_t word = AlgorithmWordSize(mode.algorithm);
        for (const Case& input : Cases(word)) {
            for (const char* backend : kBackends) {
                for (int threads : kThreads) {
                    const ScopedOmpThreads omp(threads);
                    Options options;
                    options.with_executor(backend).with_threads(threads);
                    options.adaptive = mode.adaptive;
                    const std::string label =
                        std::string(mode.adaptive ? "auto/" : "") +
                        AlgorithmName(mode.algorithm) + "@" + backend +
                        " threads=" + std::to_string(threads) + " " +
                        input.name;
                    for (unsigned char poison : kPoisons) {
                        g_poison.store(poison);
                        body(mode.algorithm, options, input.input,
                             label + " poison=" + std::to_string(poison),
                             poison);
                    }
                    g_poison.store(0xA5);
                }
            }
        }
    }
}

/** Three-frame indexed stream of @p input (one frame when it is too
 *  small to split). */
Bytes
MakeStream(Algorithm algorithm, const Options& options, const Bytes& input)
{
    const size_t word = AlgorithmWordSize(algorithm);
    const size_t elements = input.size() / word;
    const size_t per_frame = std::max<size_t>(1, (elements + 2) / 3) * word;
    StreamCompressor compressor(algorithm, options);
    for (size_t at = 0; at < input.size(); at += per_frame) {
        compressor.PutFrame(ByteSpan(input).subspan(
            at, std::min(per_frame, input.size() - at)));
    }
    return compressor.FinishWithIndex();
}

TEST(PoisonedDestination, CompressWritesEveryContainerByte)
{
    ForEachConfig([](Algorithm algorithm, const Options& options,
                     const Bytes& input, const std::string& label,
                     unsigned char poison) {
        const Bytes packed = Compress(algorithm, ByteSpan(input), options);
        g_poison.store(static_cast<unsigned char>(~poison));
        const Bytes again = Compress(algorithm, ByteSpan(input), options);
        g_poison.store(poison);
        EXPECT_EQ(packed, again) << label;
    });
}

TEST(PoisonedDestination, DecompressIntoWritesEveryByte)
{
    ForEachConfig([](Algorithm algorithm, const Options& options,
                     const Bytes& input, const std::string& label,
                     unsigned char poison) {
        const Bytes packed = Compress(algorithm, ByteSpan(input), options);
        Bytes out(input.size(), std::byte{poison});
        DecompressInto(ByteSpan(packed), std::span<std::byte>(out), options);
        EXPECT_EQ(out, input) << label;
        EXPECT_EQ(Decompress(ByteSpan(packed), options), input) << label;
    });
}

TEST(PoisonedDestination, StreamDecodersWriteEveryByte)
{
    ForEachConfig([](Algorithm algorithm, const Options& options,
                     const Bytes& input, const std::string& label,
                     unsigned char) {
        const Bytes stream = MakeStream(algorithm, options, input);
        MemoryByteSource source{ByteSpan(stream)};
        StreamPoolOptions pool;
        pool.workers = options.threads;
        ParallelStreamDecoder decoder(source, pool, options);
        Bytes out;
        while (decoder.HasNext()) AppendBytes(out, decoder.NextFrame());
        EXPECT_EQ(out, input) << label << " (pool)";

        StreamDecompressor sequential(ByteSpan(stream), options);
        out.clear();
        while (sequential.HasNext()) AppendBytes(out, sequential.NextFrame());
        EXPECT_EQ(out, input) << label << " (sequential)";
    });
}

TEST(PoisonedDestination, RangeReadWritesEveryByte)
{
    ForEachConfig([](Algorithm algorithm, const Options& options,
                     const Bytes& input, const std::string& label,
                     unsigned char) {
        const Bytes stream = MakeStream(algorithm, options, input);
        const size_t word = AlgorithmWordSize(algorithm);
        const uint64_t elements = input.size() / word;
        const Codec codec(algorithm, options);
        // The whole stream, then a window that starts and ends inside
        // chunks (and crosses a frame boundary when there are several).
        const uint64_t first = elements / 3;
        const uint64_t count = elements - first - elements / 5;
        for (const auto& [begin, n] :
             {std::pair<uint64_t, uint64_t>{0, elements}, {first, count}}) {
            const Bytes got =
                codec.decompress_range(ByteSpan(stream), begin, n);
            const Bytes want(input.begin() + static_cast<ptrdiff_t>(begin * word),
                             input.begin() +
                                 static_cast<ptrdiff_t>((begin + n) * word));
            EXPECT_EQ(got, want) << label << " range [" << begin << ", +"
                                 << n << ")";
        }
    });
}

}  // namespace
}  // namespace fpc
