/**
 * @file
 * Shared machinery of the fpcomp benchmark (perfbench): command-line
 * arguments, exact latency percentiles, the metric report printed as the
 * last stdout line, the benchmark's own span recorder, and rusage
 * helpers. Each workload (checkpoint.cc, service_mix.cc, range_read.cc)
 * fills one Report; main.cc prints it.
 */
#ifndef FPCBENCH_BENCH_H
#define FPCBENCH_BENCH_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/common.h"

namespace fpcbench {

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Self-check scale: small inputs and short phases (selfcheck.py). */
    bool small = false;
    /** Flip one byte of one output before it is verified (selfcheck.py
     *  proves a mismatch is counted as a failed op). */
    bool inject_fault = false;
    std::string out_dir = ".bench_build/run";
    std::string commit = "unknown";
};

/** Monotonic ns; the same clock as the library's telemetry and trace
 *  spans (fpc::TelemetryNowNs), so benchmark spans line up with them. */
uint64_t NowNs();

/** Median of @p values (0 when empty). */
double Median(std::vector<double> values);

/**
 * Exact latency summary of per-op samples (nearest-rank percentiles).
 * `top_pct` is the highest percentile that still has at least ten
 * samples beyond it, the tail the sample count can support.
 */
struct LatencySummary {
    size_t count = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    double top_pct = 0.0;
    double top = 0.0;
    size_t windows = 0;
};
LatencySummary Summarize(std::vector<double> samples);

/**
 * Latency of a run split into windows (one-second spans or passes): p50
 * and p99 are each window's exact percentile, reported as the median
 * over windows, so one scheduler stall moves one window, not the run.
 * `count`, `top_pct` and `top` describe all samples together.
 */
LatencySummary SummarizeWindows(const std::vector<std::vector<double>>& windows);

/** Split (time ns, value) samples into windows of @p window_ns. */
std::vector<std::vector<double>> Windows(
    const std::vector<std::pair<uint64_t, double>>& samples,
    uint64_t window_ns);

/** Process resource counters (getrusage RUSAGE_SELF). */
struct Usage {
    double user_s = 0.0;
    double sys_s = 0.0;
    uint64_t minflt = 0;
};
Usage ReadUsage();
double PeakRssMiB();

/**
 * The benchmark's own spans: one per public call it makes into a layer.
 * Spans of one op share `op`; `parent` indexes the enclosing span of the
 * same recorder (or -1). One recorder per thread; merged at the end.
 * Disabled recorders (untraced runs) record nothing.
 */
class SpanRecorder {
 public:
    struct Span {
        const char* name = "";
        uint64_t start_ns = 0;
        uint64_t end_ns = 0;
        int32_t parent = -1;
        uint64_t op = 0;
        uint32_t thread = 0;
    };

    explicit SpanRecorder(bool enabled, uint32_t thread = 0)
        : enabled_(enabled), thread_(thread)
    {
        if (enabled_) spans_.reserve(1 << 16);
    }

    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (or -1 when disabled). */
    int32_t
    Begin(const char* name, uint64_t op, int32_t parent = -1)
    {
        if (!enabled_) return -1;
        Span span;
        span.name = name;
        span.start_ns = NowNs();
        span.parent = parent;
        span.op = op;
        span.thread = thread_;
        spans_.push_back(span);
        return static_cast<int32_t>(spans_.size() - 1);
    }

    void
    End(int32_t index)
    {
        if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNs();
    }

    /** Record an already-timed interval. */
    void
    Add(const char* name, uint64_t op, int32_t parent, uint64_t start_ns,
        uint64_t end_ns)
    {
        if (!enabled_) return;
        spans_.push_back({name, start_ns, end_ns, parent, op, thread_});
    }

    const std::vector<Span>& spans() const { return spans_; }

 private:
    bool enabled_;
    uint32_t thread_;
    std::vector<Span> spans_;
};

/** Self time per span name: duration minus the part covered by child
 *  spans of the same recorder, summed over spans. */
std::map<std::string, uint64_t> SelfTimeByName(
    const std::vector<SpanRecorder::Span>& spans);

/** Write @p recorders' spans as Chrome trace-event JSON (op id and
 *  parent index in each event's args). Returns false on I/O failure. */
bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders);

/**
 * The run's result: metric values keyed by name, op counts, and detail
 * lines. `Finish` prints the facts line, the details, and a final JSON
 * line; run.py checks the names against BENCHMARK.json and adds units.
 */
class Report {
 public:
    void Set(const std::string& name, double value);

    /** Free-form detail (sample counts, tail percentiles, file paths),
     *  printed as one JSON line before the result. Values are JSON. */
    void Detail(const std::string& key, const std::string& json);

    /** Count one verified op. */
    void
    Ok()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++attempted_;
    }

    /** Count an op whose output failed verification or errored, with a
     *  diagnostic kept for stderr. */
    void Fail(const std::string& why);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

    /** Print everything; returns the process exit code (0 only when every
     *  op verified). */
    int Finish(const Args& args);

 private:
    mutable std::mutex mutex_;
    std::map<std::string, double> values_;
    std::vector<std::pair<std::string, std::string>> details_;
    std::vector<std::string> failures_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Detail JSON for a latency summary ({"count":..,"p50_us":..,...}). */
std::string SummaryJson(const LatencySummary& summary);

/** The run-facts JSON object printed first by Report::Finish (main.cc). */
std::string FactsJson(const Args& args);

/** The four fixed pipelines and the adaptive mode, as metric suffixes. */
inline const char* const kModes[] = {"SPspeed", "SPratio", "DPspeed",
                                     "DPratio", "auto"};

/**
 * Seeded test fields built from the generators in data/fields.h: SP is a
 * 2D atmospheric-like slice (rows of 4096 values), DP a smooth
 * multi-scale 1D field. Generated as sixteen independently seeded
 * segments on four threads, so set-up stays small next to the measured
 * work and one seed's field shape moves the results little.
 */
std::vector<float> SpField(size_t values, uint64_t seed);
std::vector<double> DpField(size_t values, uint64_t seed);

/**
 * One SCHED_IDLE spinning thread per usable CPU for the object's
 * lifetime. The scheduler runs an idle-policy thread only when nothing
 * else on that CPU is runnable, and any waking thread preempts it, so the
 * spinners take no time from the program or the load generator. They keep
 * a virtual machine's vCPUs from halting between requests, which would
 * otherwise make every thread wake-up depend on the host's scheduling and
 * decide the tail of a lightly loaded run. Where SCHED_IDLE is refused,
 * no spinner runs.
 */
class IdleSpinners {
 public:
    IdleSpinners();
    ~IdleSpinners();
    IdleSpinners(const IdleSpinners&) = delete;
    IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

/** Flip one byte of @p data (no-op when empty): --inject-fault. */
void CorruptOneByte(fpc::Bytes& data);

/** Workload entry points. Each runs set-up, measures, verifies every op
 *  into @p report, and fills the metrics of the requested mode. */
void RunCheckpoint(const Args& args, Report& report);
void RunServiceMix(const Args& args, Report& report);
void RunRangeRead(const Args& args, Report& report);

}  // namespace fpcbench

#endif  // FPCBENCH_BENCH_H
