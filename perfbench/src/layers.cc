#include "layers.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace fpcbench {

void
SetExecutorAndTransformLayers(const fpc::TelemetrySnapshot& snapshot,
                              double input_bytes, Report& report)
{
    const fpc::TelemetryShard& c = snapshot.counters;
    report.Set("executor.chunk_encode_p50_us",
               c.chunk_latency.encode.P50() / 1e3);
    report.Set("executor.chunk_encode_p99_us",
               c.chunk_latency.encode.P99() / 1e3);
    report.Set("executor.chunk_decode_p50_us",
               c.chunk_latency.decode.P50() / 1e3);
    report.Set("executor.chunk_decode_p99_us",
               c.chunk_latency.decode.P99() / 1e3);
    // In an auto run chunks_encoded also counts margin trials.
    const double chunks = static_cast<double>(c.chunks_encoded) -
                          static_cast<double>(c.adaptive_trials);
    report.Set("executor.raw_chunk_share",
               chunks > 0 ? static_cast<double>(c.chunks_raw) / chunks : 0.0);
    const double gib = input_bytes / double(uint64_t{1} << 30);
    for (size_t s = 0; s < fpc::kStageCount; ++s) {
        const std::string stage =
            fpc::StageName(static_cast<fpc::StageId>(s));
        const auto& m = c.stages[s];
        report.Set("transforms." + stage + ".encode_ms",
                   gib > 0 ? m.encode.wall_ns / 1e6 / gib : 0.0);
        report.Set("transforms." + stage + ".decode_ms",
                   gib > 0 ? m.decode.wall_ns / 1e6 / gib : 0.0);
    }
    report.Set("transforms.MPLG.enhanced_share",
               c.mplg_subchunks > 0
                   ? static_cast<double>(c.mplg_enhanced) /
                         static_cast<double>(c.mplg_subchunks)
                   : 0.0);
    report.Set("arena.high_water_mib",
               static_cast<double>(c.arena_high_water_bytes) / (1 << 20));
}

void
SetAdaptiveLayers(const fpc::TelemetrySnapshot& snapshot, Report& report)
{
    const fpc::TelemetryShard& c = snapshot.counters;
    uint64_t chunks = c.adaptive_raw_chunks;
    for (uint64_t n : c.adaptive_chunks) chunks += n;
    // Like with like: probe CPU-ns against the chunk-encode CPU-ns of the
    // same calls (both summed over worker shards).
    uint64_t encode_ns = 0;
    for (const auto& stage : c.stages) encode_ns += stage.encode.wall_ns;
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    report.Set("adaptive.probe_ns_per_chunk",
               ratio(double(c.adaptive_probe_ns),
                     double(c.adaptive_probe_calls)));
    report.Set("adaptive.probe_share",
               ratio(double(c.adaptive_probe_ns), double(encode_ns)));
    report.Set("adaptive.trials_per_chunk",
               ratio(double(c.adaptive_trials), double(chunks)));
    report.Set("adaptive.prediction_error",
               ratio(std::fabs(double(c.adaptive_predicted_bytes) -
                               double(c.adaptive_actual_bytes)),
                     double(c.adaptive_actual_bytes)));
}

CallSpans
AnalyseCall(const std::vector<fpc::TraceSpan>& spans, uint64_t t0,
            uint64_t t1)
{
    CallSpans out;
    out.wall_ns = static_cast<double>(t1 - t0);
    std::map<uint32_t, std::pair<uint64_t, uint64_t>> extent;  // by worker
    uint64_t first = UINT64_MAX;
    uint64_t last = 0;
    for (const fpc::TraceSpan& span : spans) {
        if (span.kind != fpc::TraceSpanKind::kChunk || span.start_ns < t0 ||
            span.start_ns > t1) {
            continue;
        }
        const uint64_t end = span.start_ns + span.dur_ns;
        out.chunk_ns += static_cast<double>(span.dur_ns);
        auto [it, fresh] =
            extent.try_emplace(span.worker, span.start_ns, end);
        if (!fresh) {
            it->second.first = std::min(it->second.first, span.start_ns);
            it->second.second = std::max(it->second.second, end);
        }
        first = std::min(first, span.start_ns);
        last = std::max(last, end);
    }
    out.workers = extent.size();
    if (extent.empty()) return out;
    out.loop_wall_ns = static_cast<double>(last - first);
    // Union of the worker extents, clipped to the call.
    std::vector<std::pair<uint64_t, uint64_t>> intervals;
    for (const auto& [worker, e] : extent) intervals.push_back(e);
    std::sort(intervals.begin(), intervals.end());
    uint64_t cursor = t0;
    for (auto [a, b] : intervals) {
        a = std::max(a, cursor);
        b = std::min(b, t1);
        if (b > a) {
            out.covered_ns += static_cast<double>(b - a);
            cursor = b;
        }
    }
    return out;
}

double
ExpositionValue(const std::string& exposition, const std::string& sample)
{
    std::istringstream in(exposition);
    std::string line;
    while (std::getline(in, line)) {
        if (line.size() > sample.size() &&
            line.compare(0, sample.size(), sample) == 0 &&
            line[sample.size()] == ' ') {
            return std::stod(line.substr(sample.size() + 1));
        }
    }
    return 0.0;
}

}  // namespace fpcbench
