/**
 * @file
 * Live, process-wide metrics for long-running deployments of the
 * library — the always-on counterpart of the batch-scoped telemetry in
 * core/telemetry.h.
 *
 * Telemetry answers "what did this run cost" once, at a run barrier; a
 * daemon operator needs "what is the process doing *right now*": queue
 * depth, per-tenant reject rates, p99 drift — scraped while the
 * scheduler is saturated. A MetricsRegistry holds named counters,
 * gauges, and log-bucketed histograms, continuously updated by the
 * request path and rendered on demand in Prometheus text exposition
 * format (first line `# fpc.metrics.v1`, pinned by
 * tools/check_stats_schema.py).
 *
 * Design rules (the PR 4 telemetry-shard discipline, adapted to
 * process lifetime; see DESIGN.md "Observability"):
 *  - **Shard-per-thread, no read-modify-write on the hot path.** Every
 *    metric owns kMetricSlots + 1 relaxed-atomic cells. A thread claims
 *    one slot for its lifetime (released at thread exit, reused by
 *    later threads); updates to an owned slot are a relaxed load + add
 *    + relaxed store — a plain uncontended add, never a lock-prefixed
 *    RMW, never a shared cache-line fight. Threads past the slot count
 *    fall back to one overflow cell updated with fetch_add, so
 *    correctness never depends on the slot supply.
 *  - **Snapshot-on-read.** Readers (the exposition renderer,
 *    Histogram::Snapshot) sum the cells with relaxed loads; writers are
 *    never blocked or slowed by a scrape.
 *  - **Stable handles.** Get*() registers on first use (one mutex, off
 *    the hot path) and returns a pointer that lives as long as the
 *    registry — call sites look a metric up once and keep the handle.
 *
 * The registry is the only owner of live service facts (per-tenant
 * requests, rejects and bytes; request latency) and is independent of
 * FPC_TELEMETRY: the service scheduler (Submit, WorkerLoop,
 * RecordOutcome) and the transport feed it in every build, so a
 * telemetry-off daemon still exports them. Only the library-side hooks
 * are gated on the build flag: the executors' run barrier
 * (RecordRunMetrics) and the arena pool (RecordArenaAcquire) are no-ops
 * under -DFPC_TELEMETRY=0.
 */
#ifndef FPC_CORE_METRICS_H
#define FPC_CORE_METRICS_H

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fpc {

struct TelemetryShard;  // core/telemetry.h

/** Owned per-thread slots per metric; slot kMetricSlots is the shared
 *  overflow cell (fetch_add) for threads past the supply. */
inline constexpr size_t kMetricSlots = 16;

/** Prometheus label set, e.g. {{"tenant","climate"},{"verb","compress"}}.
 *  Order is preserved in the exposition; identity is the sorted set. */
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/**
 * Log-bucketed latency histogram: the one histogram value type, shared
 * by the per-run telemetry shards (core/telemetry.h) and the live
 * registry's Histogram::Snapshot. Bucket i holds samples whose bit
 * width is i: bucket 0 = {0 ns}, bucket i = [2^(i-1), 2^i) ns —
 * power-of-two buckets cover the ns..s range in 65 counters with no
 * allocation. The exact maximum is kept alongside, so the top quantiles
 * never report a bucket bound past the largest observed sample, and so
 * is the exact sum of every sample (the total time the samples cover).
 */
struct LatencyHistogram {
    static constexpr size_t kBuckets = 65;  // bit_width(uint64) ∈ [0, 64]
    std::array<uint64_t, kBuckets> buckets{};
    uint64_t count = 0;
    uint64_t max_ns = 0;
    uint64_t sum_ns = 0;

    /** The bucket a sample lands in (the whole bucket scheme). */
    static size_t BucketOf(uint64_t ns) { return std::bit_width(ns); }

    void
    Record(uint64_t ns)
    {
        ++buckets[BucketOf(ns)];
        ++count;
        sum_ns += ns;
        if (ns > max_ns) max_ns = ns;
    }

    void
    Add(const LatencyHistogram& other)
    {
        for (size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
        count += other.count;
        sum_ns += other.sum_ns;
        max_ns = std::max(max_ns, other.max_ns);
    }

    /** Upper bound of the bucket holding the q-quantile sample (0 when
     *  empty), clamped to the exact observed maximum. */
    uint64_t
    Quantile(double q) const
    {
        if (count == 0) return 0;
        auto rank = static_cast<uint64_t>(q * static_cast<double>(count));
        if (rank < 1) rank = 1;
        if (rank > count) rank = count;
        uint64_t seen = 0;
        for (size_t i = 0; i < kBuckets; ++i) {
            seen += buckets[i];
            if (seen >= rank) {
                const uint64_t upper =
                    i == 0 ? 0
                    : i >= 64 ? UINT64_MAX
                              : (uint64_t{1} << i) - 1;
                return std::min(upper, max_ns);
            }
        }
        return max_ns;
    }

    uint64_t P50() const { return Quantile(0.50); }
    uint64_t P95() const { return Quantile(0.95); }
    uint64_t P99() const { return Quantile(0.99); }
};

namespace metrics_internal {

/** One sharded 64-bit accumulator: the storage shared by counters and
 *  gauges (gauges reinterpret the sum as two's-complement int64). */
struct ShardedCell {
    std::array<std::atomic<uint64_t>, kMetricSlots + 1> slots{};

    /** Hot path: plain add to the caller's owned slot (single writer),
     *  fetch_add only on the overflow slot. */
    void Bump(size_t slot, uint64_t delta);

    uint64_t Sum() const;
};

/** The slot this thread owns (claimed on first use, released at thread
 *  exit), or kMetricSlots when the supply ran out. */
size_t ThreadSlot();

}  // namespace metrics_internal

/** Monotonic counter. Handle semantics: obtained from a registry, valid
 *  for the registry's lifetime, safe to share across threads. */
class Counter {
 public:
    void
    Inc(uint64_t delta = 1)
    {
        cell_.Bump(metrics_internal::ThreadSlot(), delta);
    }

    uint64_t Value() const { return cell_.Sum(); }

 private:
    friend class MetricsRegistry;
    Counter() = default;
    metrics_internal::ShardedCell cell_;
};

/** Signed gauge (current level, e.g. queue depth). Add/Sub record
 *  deltas per shard; Value() is the summed level. */
class Gauge {
 public:
    void
    Add(int64_t delta)
    {
        cell_.Bump(metrics_internal::ThreadSlot(),
                   static_cast<uint64_t>(delta));
    }
    void Sub(int64_t delta) { Add(-delta); }

    int64_t Value() const { return static_cast<int64_t>(cell_.Sum()); }

 private:
    friend class MetricsRegistry;
    Gauge() = default;
    metrics_internal::ShardedCell cell_;
};

/**
 * Live latency histogram, sharded like the counters: the
 * LatencyHistogram bucket scheme spread over per-thread cells. Readers
 * take a Snapshot() — the same value type the telemetry shards hold —
 * and the exposition renders cumulative `le` buckets from it at every
 * other power of two (the full 65-bucket resolution is kept
 * internally).
 */
class Histogram {
 public:
    void
    Record(uint64_t ns)
    {
        const size_t slot = metrics_internal::ThreadSlot();
        buckets_[LatencyHistogram::BucketOf(ns)].Bump(slot, 1);
        sum_.Bump(slot, ns);
        // Per-slot max: single writer per owned slot, so a read-compare-
        // store is race-free; the overflow slot accepts the benign race
        // (a lost max only rounds the reported tail down).
        std::atomic<uint64_t>& max_cell = max_ns_[slot];
        if (ns > max_cell.load(std::memory_order_relaxed)) {
            max_cell.store(ns, std::memory_order_relaxed);
        }
    }

    /** Summed buckets, count (the bucket total), sum and max at read
     *  time. */
    LatencyHistogram Snapshot() const;

 private:
    friend class MetricsRegistry;
    Histogram() = default;
    std::array<metrics_internal::ShardedCell, LatencyHistogram::kBuckets>
        buckets_{};
    metrics_internal::ShardedCell sum_;
    std::array<std::atomic<uint64_t>, kMetricSlots + 1> max_ns_{};
};

/**
 * A named-metric registry. Get*() is get-or-create: the first call with
 * a (name, labels) pair registers the metric (help text and type come
 * from that call); later calls return the same handle. One process-wide
 * instance (Global()) backs the daemon; tests instantiate their own.
 */
class MetricsRegistry {
 public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /** The process-wide registry every instrumented subsystem feeds. */
    static MetricsRegistry& Global();

    Counter* GetCounter(const std::string& name, const std::string& help,
                        MetricLabels labels = {});
    Gauge* GetGauge(const std::string& name, const std::string& help,
                    MetricLabels labels = {});
    Histogram* GetHistogram(const std::string& name,
                            const std::string& help,
                            MetricLabels labels = {});

    /**
     * Render every metric in Prometheus text exposition format. The
     * first line is the schema comment `# fpc.metrics.v1`; each family
     * gets one HELP/TYPE pair; histograms emit cumulative `le` buckets
     * (ns bounds), `_sum`, and `_count`. Deterministic order (name,
     * then label set), so goldens and diffs are stable.
     */
    std::string Exposition() const;

 private:
    enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

    struct Entry {
        Kind kind;
        std::string name;
        std::string help;
        MetricLabels labels;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry& GetEntry(Kind kind, const std::string& name,
                    const std::string& help, MetricLabels&& labels);

    mutable std::mutex mutex_;
    /** Keyed by name + canonical (sorted) label rendering; std::map for
     *  the deterministic exposition order. */
    std::map<std::string, Entry> entries_;
};

/**
 * Run-barrier hook: fold one merged TelemetryShard (the executors'
 * per-run counters — chunks encoded/decoded, raw fallbacks, adaptive
 * selections) into the global registry. Called by
 * TelemetryRunScope::Finish after the shard merge, so it costs nothing
 * on the chunk hot path; a no-op when built with -DFPC_TELEMETRY=0.
 */
void RecordRunMetrics(const TelemetryShard& merged);

/** ArenaPool instrumentation (core/arena.h): @p hits arenas came back
 *  warm from the pool, @p misses were created cold, @p outstanding is
 *  the post-acquire lease depth. No-op under -DFPC_TELEMETRY=0. */
void RecordArenaAcquire(uint64_t hits, uint64_t misses,
                        uint64_t outstanding);

}  // namespace fpc

#endif  // FPC_CORE_METRICS_H
