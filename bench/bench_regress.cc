/**
 * @file
 * Standing perf-regression harness: measure all four algorithms plus
 * mode=auto (entries "auto-SP" / "auto-DP") on the CPU and a gpusim
 * backend over a small seeded synthetic corpus and emit one
 * "fpc.bench.v1" JSON line — ratio, median throughput, and the chunk
 * latency digests of each configuration, plus a config fingerprint so
 * two reports are only ever compared when they measured the same corpus.
 * The auto entries also record probe_ns vs compress_wall_ns, and the run
 * fails outright when probing exceeds 5% of the compress wall time.
 *
 * The ctest `bench` label runs this binary and feeds its output to
 * tools/compare_bench.py against the last committed BENCH_pr<N>.json
 * baseline (repo root); the gate fails on any ratio regression or a
 * throughput drop beyond the tolerance. Refresh the baseline by
 * committing the new report when a change legitimately moves the
 * numbers:
 *
 *   ./bench_regress BENCH_pr<N>.json
 *
 * Usage: bench_regress [OUT.json]      (stdout when OUT is omitted)
 * Environment: FPC_BENCH_VALUES (default 16384), FPC_BENCH_RUNS (3),
 * FPC_BENCH_REPEATS (5), FPC_BENCH_SP_SCALE (0.1), FPC_BENCH_DP_SCALE
 * (0.25) — all part of the fingerprint, so a scaled run never gates
 * against a default baseline.
 *
 * Throughput is the best (max) of FPC_BENCH_REPEATS whole evaluations,
 * each itself a median over FPC_BENCH_RUNS: timing noise on a shared
 * machine is one-sided (things only ever get slower), so best-of-N is a
 * far more stable estimator for a regression gate than a single median.
 * Ratios are deterministic and asserted identical across repeats.
 */
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.h"
#include "core/telemetry.h"
#include "data/datasets.h"
#include "eval/harness.h"
#include "figure_common.h"
#include "util/hash.h"

namespace {

using namespace fpc;

struct BenchConfig {
    size_t values_per_file = 16384;
    double sp_scale = 0.1;
    double dp_scale = 0.25;
    int runs = 3;
    int repeats = 5;
};

/** Identity of the measured corpus + methodology. Deliberately excludes
 *  machine facts (threads, telemetry build flag, kernel ISA): those are
 *  recorded alongside and the comparator decides what stays comparable. */
std::string
Fingerprint(const BenchConfig& config)
{
    char key[128];
    std::snprintf(key, sizeof(key),
                  "values=%zu;sp=%.6f;dp=%.6f;runs=%d;repeats=%d",
                  config.values_per_file, config.sp_scale, config.dp_scale,
                  config.runs, config.repeats);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64,
                  Checksum64(AsBytes(std::span<const char>(
                      key, std::char_traits<char>::length(key)))));
    return hex;
}

}  // namespace

int
main(int argc, char** argv)
{
    try {
        BenchConfig config;
        config.values_per_file = bench::EnvSize("FPC_BENCH_VALUES", 16384);
        config.runs =
            static_cast<int>(bench::EnvSize("FPC_BENCH_RUNS", 3));
        config.repeats =
            static_cast<int>(bench::EnvSize("FPC_BENCH_REPEATS", 5));
        config.sp_scale = bench::EnvDouble("FPC_BENCH_SP_SCALE", 0.1);
        config.dp_scale = bench::EnvDouble("FPC_BENCH_DP_SCALE", 0.25);

        data::SuiteConfig sp_config;
        sp_config.values_per_file = config.values_per_file;
        sp_config.file_scale = config.sp_scale;
        data::SuiteConfig dp_config;
        dp_config.values_per_file = config.values_per_file;
        dp_config.file_scale = config.dp_scale;
        const std::vector<eval::EvalInput> sp_inputs =
            eval::ToInputs(data::SingleSuite(sp_config));
        const std::vector<eval::EvalInput> dp_inputs =
            eval::ToInputs(data::DoubleSuite(dp_config));

        eval::EvalConfig eval_config;
        eval_config.runs = config.runs;

        constexpr Algorithm kAlgorithms[] = {
            Algorithm::kSPspeed,
            Algorithm::kSPratio,
            Algorithm::kDPspeed,
            Algorithm::kDPratio,
        };
        constexpr const char* kBackends[] = {"cpu", "gpusim:4090"};

        std::string out;
        out.reserve(4096);
        out += "{\"schema\": \"fpc.bench.v1\", \"config\": {";
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "\"values_per_file\": %zu, \"sp_scale\": %.6f, "
                      "\"dp_scale\": %.6f, \"runs\": %d, \"repeats\": %d, "
                      "\"threads\": %u, \"isa\": \"%s\", "
                      "\"telemetry\": %s, \"fingerprint\": \"%s\"}, "
                      "\"results\": [",
                      config.values_per_file, config.sp_scale,
                      config.dp_scale, config.runs, config.repeats,
                      std::max(1u, std::thread::hardware_concurrency()),
                      simd::IsaName(simd::DefaultIsa()),
                      kTelemetryEnabled ? "true" : "false",
                      Fingerprint(config).c_str());
        out += buf;

        bool first = true;
        for (const char* backend : kBackends) {
            const Executor& executor = GetExecutor(backend);
            for (Algorithm algorithm : kAlgorithms) {
                const bool dp = AlgorithmWordSize(algorithm) == 8;
                // Best-of-repeats: keep the evaluation with the highest
                // compress throughput, tracking the decompress max
                // independently (noise is uncorrelated between the two).
                eval::CodecResult result = eval::Evaluate(
                    eval::OurCodec(algorithm, executor),
                    dp ? dp_inputs : sp_inputs, eval_config);
                for (int rep = 1; rep < config.repeats; ++rep) {
                    eval::CodecResult again = eval::Evaluate(
                        eval::OurCodec(algorithm, executor),
                        dp ? dp_inputs : sp_inputs, eval_config);
                    if (again.ratio != result.ratio) {
                        std::fprintf(stderr,
                                     "bench_regress: non-deterministic "
                                     "ratio for %s@%s\n",
                                     AlgorithmName(algorithm), backend);
                        return 1;
                    }
                    const double decomp_best = std::max(
                        result.decompress_gbps, again.decompress_gbps);
                    if (again.compress_gbps > result.compress_gbps)
                        result = again;
                    result.decompress_gbps = decomp_best;
                }
                if (!first) out += ", ";
                first = false;
                std::snprintf(buf, sizeof(buf),
                              "{\"algorithm\": \"%s\", \"backend\": "
                              "\"%s\", \"ratio\": %.6f, "
                              "\"compress_gbps\": %.6f, "
                              "\"decompress_gbps\": %.6f, "
                              "\"histograms\": {",
                              AlgorithmName(algorithm), backend,
                              result.ratio, result.compress_gbps,
                              result.decompress_gbps);
                out += buf;
                AppendDigest(out, "chunk_encode",
                             result.telemetry.counters.chunk_latency.encode,
                             false);
                AppendDigest(out, "chunk_decode",
                             result.telemetry.counters.chunk_latency.decode,
                             true);
                out += "}}";
            }

            // mode=auto entries, one per element width. New relative to
            // v1 baselines: compare_bench only gates configurations the
            // committed baseline contains, so older baselines stay
            // valid. The probe must stay cheap — fail the run outright
            // when probing costs more than 5% of the compress wall time.
            for (Algorithm width :
                 {Algorithm::kSPspeed, Algorithm::kDPspeed}) {
                const bool dp = AlgorithmWordSize(width) == 8;
                eval::CodecResult result = eval::Evaluate(
                    eval::OurAdaptiveCodec(width, executor),
                    dp ? dp_inputs : sp_inputs, eval_config);
                for (int rep = 1; rep < config.repeats; ++rep) {
                    eval::CodecResult again = eval::Evaluate(
                        eval::OurAdaptiveCodec(width, executor),
                        dp ? dp_inputs : sp_inputs, eval_config);
                    if (again.ratio != result.ratio) {
                        std::fprintf(stderr,
                                     "bench_regress: non-deterministic "
                                     "ratio for %s@%s\n",
                                     result.name.c_str(), backend);
                        return 1;
                    }
                    const double decomp_best = std::max(
                        result.decompress_gbps, again.decompress_gbps);
                    if (again.compress_gbps > result.compress_gbps)
                        result = again;
                    result.decompress_gbps = decomp_best;
                }
                const uint64_t probe_ns =
                    result.telemetry.counters.adaptive_probe_ns;
                const uint64_t compress_ns =
                    result.telemetry.compress.wall_ns;
                if (kTelemetryEnabled && compress_ns > 0 &&
                    probe_ns * 20 > compress_ns) {
                    std::fprintf(stderr,
                                 "bench_regress: %s@%s probe overhead "
                                 "%.2f%% of compress wall exceeds the 5%% "
                                 "budget\n",
                                 result.name.c_str(), backend,
                                 100.0 * static_cast<double>(probe_ns) /
                                     static_cast<double>(compress_ns));
                    return 1;
                }
                if (!first) out += ", ";
                first = false;
                std::snprintf(buf, sizeof(buf),
                              "{\"algorithm\": \"%s\", \"backend\": "
                              "\"%s\", \"ratio\": %.6f, "
                              "\"compress_gbps\": %.6f, "
                              "\"decompress_gbps\": %.6f, "
                              "\"probe_ns\": %" PRIu64
                              ", \"compress_wall_ns\": %" PRIu64
                              ", \"histograms\": {",
                              result.name.c_str(), backend, result.ratio,
                              result.compress_gbps, result.decompress_gbps,
                              probe_ns, compress_ns);
                out += buf;
                AppendDigest(out, "chunk_encode",
                             result.telemetry.counters.chunk_latency.encode,
                             false);
                AppendDigest(out, "chunk_decode",
                             result.telemetry.counters.chunk_latency.decode,
                             true);
                out += "}}";
            }
        }
        out += "]}";

        if (argc > 1) {
            std::FILE* f = std::fopen(argv[1], "w");
            if (f == nullptr) {
                std::fprintf(stderr, "bench_regress: cannot open %s\n",
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
        std::fprintf(stderr, "bench_regress: %s\n", e.what());
        return 1;
    }
}
