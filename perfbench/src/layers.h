/**
 * @file
 * Per-layer metrics derived from the library's public observability
 * sinks (Telemetry snapshots, TraceSink spans). Shared by the workloads'
 * traced runs; nothing here runs in an untraced run.
 */
#ifndef FPCBENCH_LAYERS_H
#define FPCBENCH_LAYERS_H

#include <vector>

#include "bench.h"
#include "core/telemetry.h"
#include "core/trace.h"

namespace fpcbench {

/** Executor chunk latency digests, raw-chunk share, per-stage transform
 *  time (ms per GiB of @p input_bytes), MPLG enhancement share, and the
 *  arena high-water mark, from one merged snapshot. */
void SetExecutorAndTransformLayers(const fpc::TelemetrySnapshot& snapshot,
                                   double input_bytes, Report& report);

/** adaptive.* from a snapshot of mode=auto compress calls only. */
void SetAdaptiveLayers(const fpc::TelemetrySnapshot& snapshot,
                       Report& report);

/** What one codec call's library spans say about the executor. */
struct CallSpans {
    double wall_ns = 0.0;         ///< the call, as timed by the benchmark
    double covered_ns = 0.0;      ///< part covered by worker activity
    double chunk_ns = 0.0;        ///< sum of chunk span durations
    double loop_wall_ns = 0.0;    ///< first chunk start .. last chunk end
    size_t workers = 0;           ///< distinct workers that ran chunks
};

/** Analyse the chunk spans that start inside one call [t0, t1]. */
CallSpans AnalyseCall(const std::vector<fpc::TraceSpan>& spans, uint64_t t0,
                      uint64_t t1);

/** Value of an unlabelled sample in a Prometheus exposition (0 when
 *  absent). */
double ExpositionValue(const std::string& exposition,
                       const std::string& sample);

}  // namespace fpcbench

#endif  // FPCBENCH_LAYERS_H
