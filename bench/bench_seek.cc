/**
 * @file
 * Random-access and parallel-streaming benchmark for the container v2
 * seek path (DESIGN.md "Container v2 & random access"):
 *
 *  - ranged-read latency: DecompressRange of small element ranges at
 *    uniformly random offsets into a multi-frame indexed stream, reported
 *    as a p50/p95/p99 latency digest plus effective throughput;
 *  - pool throughput: ParallelStreamDecoder draining the same stream at
 *    several worker counts, so the scaling curve of the bounded pool is
 *    visible next to the single-range numbers.
 *
 * Emits one "fpc.bench.v1" JSON line (same schema as bench_regress, so
 * tools/compare_bench.py can gate two reports): the ranged configuration
 * uses backend "<backend>:range" with the latency digest under
 * "histograms", the pool configurations use "<backend>:pool-w<N>".
 * Ratio and compress_gbps describe the one stream every configuration
 * reads, so the ratio gate stays meaningful.
 *
 * Usage: bench_seek [OUT.json]          (stdout when OUT is omitted)
 * Environment (all part of the config fingerprint):
 *   FPC_BENCH_SEEK_FRAMES    frames in the stream        (default 16)
 *   FPC_BENCH_SEEK_VALUES    float elements per frame    (default 262144)
 *   FPC_BENCH_SEEK_QUERIES   random ranged reads timed   (default 256)
 *   FPC_BENCH_SEEK_RANGE     elements per ranged read    (default 1024)
 *   FPC_BENCH_SEEK_REPEATS   best-of-N whole passes      (default 3)
 *   FPC_BENCH_SEEK_BACKEND   executor-registry name      (default cpu)
 *   FPC_BENCH_SEEK_WORKERS   comma list of pool sizes    (default 1,2,4,8)
 */
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/codec.h"
#include "core/executor.h"
#include "core/stream.h"
#include "core/telemetry.h"
#include "figure_common.h"
#include "util/byte_source.h"
#include "util/hash.h"

namespace {

using namespace fpc;
using Clock = std::chrono::steady_clock;

struct SeekConfig {
    size_t frames = 16;
    size_t values_per_frame = 262144;
    size_t queries = 256;
    size_t range_elements = 1024;
    int repeats = 3;
    std::string backend = "cpu";
    std::vector<int> workers = {1, 2, 4, 8};
};

std::string
Fingerprint(const SeekConfig& config)
{
    std::string workers;
    for (int w : config.workers) {
        if (!workers.empty()) workers += ",";
        workers += std::to_string(w);
    }
    char key[192];
    std::snprintf(key, sizeof(key),
                  "seek;frames=%zu;values=%zu;queries=%zu;range=%zu;"
                  "repeats=%d;backend=%s;workers=%s",
                  config.frames, config.values_per_frame, config.queries,
                  config.range_elements, config.repeats,
                  config.backend.c_str(), workers.c_str());
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64,
                  Checksum64(AsBytes(std::span<const char>(
                      key, std::char_traits<char>::length(key)))));
    return hex;
}

/** Compressible random-walk floats, seeded per frame. */
std::vector<float>
SmoothValues(size_t n, uint64_t seed)
{
    std::vector<float> values(n);
    uint64_t state = seed * 2862933555777941757ull + 3037000493ull;
    double x = 100.0;
    for (size_t i = 0; i < n; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        x += (static_cast<double>((state >> 33) & 0xfff) - 2048.0) / 8192.0;
        values[i] = static_cast<float>(x);
    }
    return values;
}

/** Workers a ranged read decodes on: default Options (threads 0) run
 *  the executor's OpenMP team. */
int
RangeThreads()
{
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 1;
#endif
}

double
Seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::vector<int>
ParseWorkerList(const std::string& text)
{
    std::vector<int> workers;
    size_t at = 0;
    while (at < text.size()) {
        const size_t comma = text.find(',', at);
        const std::string item =
            text.substr(at, comma == std::string::npos ? comma : comma - at);
        if (!item.empty()) workers.push_back(std::stoi(item));
        if (comma == std::string::npos) break;
        at = comma + 1;
    }
    return workers.empty() ? std::vector<int>{1} : workers;
}

}  // namespace

int
main(int argc, char** argv)
{
    try {
        SeekConfig config;
        config.frames = bench::EnvSize("FPC_BENCH_SEEK_FRAMES", 16);
        config.values_per_frame =
            bench::EnvSize("FPC_BENCH_SEEK_VALUES", 262144);
        config.queries = bench::EnvSize("FPC_BENCH_SEEK_QUERIES", 256);
        config.range_elements =
            bench::EnvSize("FPC_BENCH_SEEK_RANGE", 1024);
        config.repeats =
            static_cast<int>(bench::EnvSize("FPC_BENCH_SEEK_REPEATS", 3));
        config.backend = bench::EnvString("FPC_BENCH_SEEK_BACKEND", "cpu");
        config.workers = ParseWorkerList(
            bench::EnvString("FPC_BENCH_SEEK_WORKERS", "1,2,4,8"));

        Options options;
        options.executor = &GetExecutor(config.backend);

        // One indexed stream that every configuration below reads.
        const size_t total_elements =
            config.frames * config.values_per_frame;
        const size_t original_bytes = total_elements * sizeof(float);
        StreamCompressor compressor(Algorithm::kSPspeed);
        const Clock::time_point c0 = Clock::now();
        for (size_t f = 0; f < config.frames; ++f) {
            const std::vector<float> values =
                SmoothValues(config.values_per_frame, f + 1);
            compressor.PutFloats(std::span<const float>(values));
        }
        const Bytes& stream = compressor.FinishWithIndex();
        const double compress_s = Seconds(c0, Clock::now());
        const double ratio =
            static_cast<double>(original_bytes) /
            static_cast<double>(stream.size());
        const double compress_gbps =
            original_bytes / compress_s / 1e9;
        MemoryByteSource source{ByteSpan(stream)};

        // Ranged reads: best-of-repeats throughput, worst-case (merged
        // over all repeats) latency digest — latency tails are what a
        // random-access consumer actually experiences.
        LatencyHistogram range_latency;
        double range_gbps = 0.0;
        const size_t range = std::min<size_t>(
            std::max<size_t>(1, config.range_elements), total_elements);
        for (int rep = 0; rep < config.repeats; ++rep) {
            uint64_t state = 0x5eed5eedull ^ (uint64_t{1} << (rep + 8));
            double total_s = 0.0;
            for (size_t q = 0; q < config.queries; ++q) {
                state = state * 6364136223846793005ull +
                        1442695040888963407ull;
                const uint64_t first =
                    (state >> 17) % (total_elements - range + 1);
                const Clock::time_point t0 = Clock::now();
                const Bytes got =
                    DecompressRange(source, first, range, options);
                const Clock::time_point t1 = Clock::now();
                if (got.size() != range * sizeof(float)) {
                    std::fprintf(stderr, "bench_seek: short ranged read\n");
                    return 1;
                }
                const double s = Seconds(t0, t1);
                total_s += s;
                range_latency.Record(static_cast<uint64_t>(s * 1e9));
            }
            range_gbps = std::max(
                range_gbps,
                config.queries * range * sizeof(float) / total_s / 1e9);
        }

        // Pool throughput at each requested worker count.
        struct PoolPoint {
            int workers;
            double gbps;
        };
        std::vector<PoolPoint> pool;
        for (int workers : config.workers) {
            double best = 0.0;
            for (int rep = 0; rep < config.repeats; ++rep) {
                StreamPoolOptions shape;
                shape.workers = workers;
                const Clock::time_point t0 = Clock::now();
                ParallelStreamDecoder decoder(source, shape, options);
                size_t delivered = 0;
                while (decoder.HasNext()) {
                    delivered += decoder.NextFrame().size();
                }
                const double s = Seconds(t0, Clock::now());
                if (delivered != original_bytes) {
                    std::fprintf(stderr, "bench_seek: pool lost bytes\n");
                    return 1;
                }
                best = std::max(best, delivered / s / 1e9);
            }
            pool.push_back({workers, best});
        }

        std::string out;
        out.reserve(4096);
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "{\"schema\": \"fpc.bench.v1\", \"config\": {"
                      "\"frames\": %zu, \"values_per_frame\": %zu, "
                      "\"queries\": %zu, \"range_elements\": %zu, "
                      "\"repeats\": %d, \"threads\": %d, \"isa\": \"%s\", "
                      "\"telemetry\": %s, \"fingerprint\": \"%s\"}, "
                      "\"results\": [",
                      config.frames, config.values_per_frame, config.queries,
                      config.range_elements, config.repeats,
                      RangeThreads(), simd::IsaName(simd::DefaultIsa()),
                      kTelemetryEnabled ? "true" : "false",
                      Fingerprint(config).c_str());
        out += buf;

        std::snprintf(buf, sizeof(buf),
                      "{\"algorithm\": \"SPspeed\", \"backend\": "
                      "\"%s:range\", \"ratio\": %.6f, "
                      "\"compress_gbps\": %.6f, \"decompress_gbps\": %.6f, "
                      "\"histograms\": {",
                      config.backend.c_str(), ratio, compress_gbps,
                      range_gbps);
        out += buf;
        AppendDigest(out, "range_read", range_latency, true);
        out += "}}";

        for (const PoolPoint& p : pool) {
            std::snprintf(buf, sizeof(buf),
                          ", {\"algorithm\": \"SPspeed\", \"backend\": "
                          "\"%s:pool-w%d\", \"ratio\": %.6f, "
                          "\"compress_gbps\": %.6f, "
                          "\"decompress_gbps\": %.6f, \"histograms\": {}}",
                          config.backend.c_str(), p.workers, ratio,
                          compress_gbps, p.gbps);
            out += buf;
        }
        out += "]}";

        std::fprintf(stderr,
                     "bench_seek: %zu frames x %zu floats, ratio %.3f, "
                     "range p50 %" PRIu64 " us / p99 %" PRIu64
                     " us, range %.3f GB/s\n",
                     config.frames, config.values_per_frame, ratio,
                     range_latency.P50() / 1000,
                     range_latency.P99() / 1000, range_gbps);
        for (const PoolPoint& p : pool) {
            std::fprintf(stderr, "bench_seek: pool w=%d  %.3f GB/s\n",
                         p.workers, p.gbps);
        }

        if (argc > 1) {
            std::FILE* f = std::fopen(argv[1], "w");
            if (f == nullptr) {
                std::fprintf(stderr, "bench_seek: cannot open %s\n",
                             argv[1]);
                return 1;
            }
            std::fprintf(f, "%s\n", out.c_str());
            std::fclose(f);
            std::fprintf(stderr, "bench report written to %s\n", argv[1]);
        } else {
            std::printf("%s\n", out.c_str());
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_seek: %s\n", e.what());
        return 1;
    }
}
