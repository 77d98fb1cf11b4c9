/**
 * @file
 * Span-tracer tests (core/trace.h):
 *
 *  - hierarchy reconciliation: on both backends, the stage spans of every
 *    chunk nest inside (sum to no more than) that chunk's span, and span
 *    counts equal the telemetry call counters collected by the same run;
 *  - histogram totals: the chunk latency digests of the telemetry
 *    snapshot count exactly one sample per chunk;
 *  - neutrality: attaching a tracer must not change one compressed byte
 *    (asserted against the executor_test golden checksums);
 *  - the Chrome trace-event export shape ("fpc.trace.v1") and the
 *    Codec::enable_tracing flush-to-file path;
 *  - the FPC_TELEMETRY=0 build records no spans but still exports valid
 *    (empty) JSON.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <tuple>

#include "core/codec.h"
#include "core/executor.h"
#include "core/telemetry.h"
#include "core/trace.h"
#include "util/hash.h"

namespace fpc {
namespace {

/** Same generator as determinism_test / executor_test, so the golden
 *  rows below stay comparable across the test suite. */
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

constexpr const char* kBackends[] = {"cpu", "gpusim:4090"};

constexpr Algorithm kAlgorithms[] = {
    Algorithm::kSPspeed,
    Algorithm::kSPratio,
    Algorithm::kDPspeed,
    Algorithm::kDPratio,
};

/** Spans of one run grouped by (worker, chunk, direction). */
struct ChunkSpans {
    uint64_t chunk_dur_ns = 0;
    size_t chunk_spans = 0;
    uint64_t stage_sum_ns = 0;
};

TEST(TraceReconciliation, StageSpansNestInChunkSpansOnBothBackends)
{
    if (!kTelemetryEnabled) GTEST_SKIP() << "built with FPC_TELEMETRY=0";
    const Bytes input = MakeInput(kChunkSize * 24 + 100, 0x7ace);
    for (const char* backend : kBackends) {
        for (Algorithm algorithm : kAlgorithms) {
            SCOPED_TRACE(std::string(backend) + " / " +
                         AlgorithmName(algorithm));
            Telemetry sink;
            TraceSink trace;
            Options options = Options{}
                                  .with_executor(backend)
                                  .with_telemetry(&sink)
                                  .with_trace(&trace);
            Bytes compressed =
                Compress(algorithm, ByteSpan(input), options);
            EXPECT_EQ(Decompress(ByteSpan(compressed), options), input);
            ASSERT_EQ(trace.DroppedCount(), 0u);

            const TelemetrySnapshot snap = sink.Snapshot();
            std::map<std::tuple<uint32_t, uint64_t, uint8_t>, ChunkSpans>
                chunks;
            size_t chunk_encode_spans = 0;
            size_t chunk_decode_spans = 0;
            size_t run_spans = 0;
            std::array<std::array<uint64_t, 2>, kStageCount> stage_calls{};
            for (const TraceSpan& span : trace.Spans()) {
                const auto key =
                    std::make_tuple(span.worker, span.id, span.dir);
                switch (span.kind) {
                  case TraceSpanKind::kRun:
                      ++run_spans;
                      break;
                  case TraceSpanKind::kChunk:
                      chunks[key].chunk_dur_ns += span.dur_ns;
                      ++chunks[key].chunk_spans;
                      ++(span.dir == kTraceEncode ? chunk_encode_spans
                                                  : chunk_decode_spans);
                      break;
                  case TraceSpanKind::kStage:
                      chunks[key].stage_sum_ns += span.dur_ns;
                      ++stage_calls[span.stage][span.dir];
                      break;
                  case TraceSpanKind::kPre:
                      // Whole-input stage, outside any chunk; counted
                      // against the same telemetry stage counters.
                      ++stage_calls[span.stage][span.dir];
                      break;
                  case TraceSpanKind::kWorker:
                  case TraceSpanKind::kBlock:
                      break;
                }
            }

            // One run span per entry-point call (compress + decompress).
            EXPECT_EQ(run_spans, 2u);

            // Span counts reconcile with the telemetry call counters
            // merged at the same barrier.
            EXPECT_EQ(chunk_encode_spans, snap.counters.chunks_encoded);
            EXPECT_EQ(chunk_decode_spans, snap.counters.chunks_decoded);
            for (size_t s = 0; s < kStageCount; ++s) {
                SCOPED_TRACE(StageName(static_cast<StageId>(s)));
                EXPECT_EQ(stage_calls[s][kTraceEncode],
                          snap.counters.stages[s].encode.calls);
                EXPECT_EQ(stage_calls[s][kTraceDecode],
                          snap.counters.stages[s].decode.calls);
            }

            // Each (worker, chunk, dir) appears at most once, and its
            // stage spans nest inside the chunk span.
            for (const auto& [key, group] : chunks) {
                EXPECT_EQ(group.chunk_spans, 1u)
                    << "chunk " << std::get<1>(key) << " recorded twice";
                EXPECT_LE(group.stage_sum_ns, group.chunk_dur_ns)
                    << "stage spans of chunk " << std::get<1>(key)
                    << " exceed the chunk span";
            }

            // Chunk latency histograms count one sample per chunk.
            EXPECT_EQ(snap.counters.chunk_latency.encode.count,
                      snap.counters.chunks_encoded);
            EXPECT_EQ(snap.counters.chunk_latency.decode.count,
                      snap.counters.chunks_decoded);
        }
    }
}

TEST(TraceReconciliation, BlockSpansCoverChunkSpansOnDevicePath)
{
    if (!kTelemetryEnabled) GTEST_SKIP() << "built with FPC_TELEMETRY=0";
    const Bytes input = MakeInput(kChunkSize * 12, 0xb10c);
    TraceSink trace;
    Options options =
        Options{}.with_executor("gpusim:4090").with_trace(&trace);
    Bytes compressed =
        Compress(Algorithm::kSPspeed, ByteSpan(input), options);
    EXPECT_EQ(Decompress(ByteSpan(compressed), options), input);

    std::map<std::tuple<uint32_t, uint64_t, uint8_t>, uint64_t> chunk_dur;
    std::map<std::tuple<uint32_t, uint64_t, uint8_t>, uint64_t> block_dur;
    for (const TraceSpan& span : trace.Spans()) {
        const auto key = std::make_tuple(span.worker, span.id, span.dir);
        if (span.kind == TraceSpanKind::kChunk) chunk_dur[key] = span.dur_ns;
        if (span.kind == TraceSpanKind::kBlock) block_dur[key] = span.dur_ns;
    }
    ASSERT_FALSE(block_dur.empty());
    ASSERT_EQ(block_dur.size(), chunk_dur.size());
    for (const auto& [key, dur] : block_dur) {
        ASSERT_TRUE(chunk_dur.count(key));
        // The block span includes the chunk encode plus the look-back
        // hand-off (encode) or is identical to it (decode).
        EXPECT_GE(dur, chunk_dur[key]);
    }
}

/** Attaching a tracer must not change the compressed bytes: golden rows
 *  copied from executor_test.cc (1 MiB, seed 0x5eed+size, threads=1). */
TEST(TraceNeutrality, GoldenChecksumsWithTracingOn)
{
    struct Golden {
        Algorithm algorithm;
        size_t compressed_bytes;
        uint64_t checksum;
    };
    const Golden kGolden[] = {
        {Algorithm::kSPspeed, 352288, 0x8164796542bb988bull},
        {Algorithm::kDPratio, 709370, 0x69a8a775ae901fbcull},
    };
    const Bytes input =
        MakeInput(size_t{1} << 20, 0x5eed + (size_t{1} << 20));
    for (const char* backend : kBackends) {
        for (const Golden& g : kGolden) {
            SCOPED_TRACE(std::string(backend) + " / " +
                         AlgorithmName(g.algorithm));
            TraceSink trace;
            Options plain =
                Options{}.with_executor(backend).with_threads(1);
            Options traced = plain;
            traced.with_trace(&trace);

            const Bytes without =
                Compress(g.algorithm, ByteSpan(input), plain);
            const Bytes with =
                Compress(g.algorithm, ByteSpan(input), traced);
            EXPECT_EQ(without, with);
            EXPECT_EQ(with.size(), g.compressed_bytes);
            EXPECT_EQ(Checksum64(ByteSpan(with)), g.checksum);
            EXPECT_EQ(Decompress(ByteSpan(with), traced), input);
            if (kTelemetryEnabled) {
                EXPECT_GT(trace.SpanCount(), 0u);
            } else {
                EXPECT_EQ(trace.SpanCount(), 0u);
            }
        }
    }
}

TEST(TraceExport, ChromeJsonShape)
{
    TraceSink trace;
    Options options = Options{}.with_trace(&trace);
    const Bytes input = MakeInput(kChunkSize * 4, 0xc402);
    Bytes compressed =
        Compress(Algorithm::kSPspeed, ByteSpan(input), options);
    Decompress(ByteSpan(compressed), options);

    const std::string json = trace.ToChromeJson();
    EXPECT_EQ(json.find("{\"schema\": \"fpc.trace.v1\""), 0u);
    for (const char* field :
         {"\"displayTimeUnit\"", "\"dropped\": 0", "\"traceEvents\": [",
          "\"ph\": \"M\"", "\"process_name\""}) {
        EXPECT_NE(json.find(field), std::string::npos) << field;
    }
    if (kTelemetryEnabled) {
        for (const char* field :
             {"\"ph\": \"X\"", "\"name\": \"compress SPspeed@cpu\"",
              "\"name\": \"chunk encode\"", "\"cat\": \"stage\"",
              "\"name\": \"worker 0\""}) {
            EXPECT_NE(json.find(field), std::string::npos) << field;
        }
    } else {
        // Valid, loadable, and empty.
        EXPECT_EQ(json.find("\"ph\": \"X\""), std::string::npos);
        EXPECT_EQ(trace.SpanCount(), 0u);
    }

    trace.Reset();
    EXPECT_EQ(trace.SpanCount(), 0u);
    EXPECT_EQ(trace.DroppedCount(), 0u);
}

TEST(TraceExport, CodecEnableTracingWritesFileOnDestruction)
{
    const std::string path =
        testing::TempDir() + "/codec_enable_tracing_test.json";
    std::remove(path.c_str());
    const Bytes input = MakeInput(kChunkSize * 2, 0x0def);
    {
        Codec codec(Algorithm::kSPratio);
        TraceSink& trace = codec.enable_tracing(path);
        EXPECT_EQ(&trace, codec.trace());
        // enable_tracing is idempotent: a second call returns the same
        // tracer instead of replacing it.
        EXPECT_EQ(&codec.enable_tracing(), &trace);
        Bytes compressed = codec.compress(ByteSpan(input));
        EXPECT_EQ(codec.decompress(ByteSpan(compressed)), input);
    }  // last codec copy gone: trace flushed to `path`
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << path;
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.find("{\"schema\": \"fpc.trace.v1\""), 0u);
    if (kTelemetryEnabled) {
        EXPECT_NE(line.find("compress SPratio@cpu"), std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(TraceExport, WriteJsonReportsFailure)
{
    TraceSink trace;
    EXPECT_FALSE(trace.WriteJson("/nonexistent-dir/trace.json"));
}

}  // namespace
}  // namespace fpc
