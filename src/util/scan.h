/**
 * @file
 * Prefix-sum (scan) helpers. The CPU codecs use the serial versions; the
 * GPU-simulator codecs use the block/warp-structured versions in
 * gpusim/primitives.h, which must compute identical results. Both
 * executors place compressed chunks with the decoupled look-back scan.
 */
#ifndef FPC_UTIL_SCAN_H
#define FPC_UTIL_SCAN_H

#include <atomic>

#include "util/common.h"

namespace fpc {

/** In-place exclusive prefix sum; returns the total. */
template <typename T>
T
ExclusiveScan(std::span<T> data)
{
    T running{};
    for (T& v : data) {
        T next = running + v;
        v = running;
        running = next;
    }
    return running;
}

/** In-place inclusive prefix sum; returns the total. */
template <typename T>
T
InclusiveScan(std::span<T> data)
{
    T running{};
    for (T& v : data) {
        running += v;
        v = running;
    }
    return running;
}

/**
 * Decoupled look-back single-pass scan over per-block values [28]
 * (Merrill & Garland): each block publishes its aggregate, then resolves
 * its exclusive prefix by inspecting predecessors' states (AGGREGATE vs
 * PREFIX), falling back at most a few steps in practice. A block resolves
 * only once every predecessor has published; a caller that cannot wait
 * retries later (core/orchestrate.h EncodePlan parks the chunk).
 */
class DecoupledLookback {
 public:
    explicit DecoupledLookback(size_t num_blocks)
        : states_(num_blocks), aggregates_(num_blocks),
          prefixes_(num_blocks)
    {
        for (auto& s : states_) s.store(kEmpty, std::memory_order_relaxed);
    }

    /** Block @p b publishes its local @p aggregate. */
    void
    PublishAggregate(size_t b, uint64_t aggregate)
    {
        aggregates_[b] = aggregate;
        states_[b].store(kAggregate, std::memory_order_release);
    }

    /**
     * Block @p b (already published) resolves its exclusive prefix into
     * @p exclusive and publishes its inclusive prefix for successors —
     * or returns false, changing nothing, when a predecessor has not
     * published yet.
     */
    bool
    TryResolvePrefix(size_t b, uint64_t& exclusive)
    {
        uint64_t sum = 0;
        for (size_t look = b; look-- > 0;) {
            const unsigned state =
                states_[look].load(std::memory_order_acquire);
            if (state == kEmpty) return false;
            if (state == kPrefix) {
                sum += prefixes_[look];
                break;
            }
            sum += aggregates_[look];
        }
        prefixes_[b] = sum + aggregates_[b];
        states_[b].store(kPrefix, std::memory_order_release);
        exclusive = sum;
        return true;
    }

 private:
    static constexpr unsigned kEmpty = 0;
    static constexpr unsigned kAggregate = 1;
    static constexpr unsigned kPrefix = 2;

    std::vector<std::atomic<unsigned>> states_;
    std::vector<uint64_t> aggregates_;
    std::vector<uint64_t> prefixes_;
};

}  // namespace fpc

#endif  // FPC_UTIL_SCAN_H
