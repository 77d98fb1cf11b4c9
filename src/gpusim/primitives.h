/**
 * @file
 * Warp- and block-level collective primitives on the execution model:
 * the shuffle exchange, ballot, reductions and hierarchical block scan.
 * The decoupled look-back scan that places compressed chunks is shared
 * with the cpu executor and lives in util/scan.h.
 */
#ifndef FPC_GPUSIM_PRIMITIVES_H
#define FPC_GPUSIM_PRIMITIVES_H

#include "gpusim/device.h"

namespace fpc::gpusim {

/** __shfl_xor_sync: every lane swaps its value with lane (lane ^ mask). */
template <typename T>
WarpReg<T>
ShuffleXor(const WarpReg<T>& reg, unsigned mask)
{
    WarpReg<T> out;
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        out[lane] = reg[lane ^ mask];
    }
    return out;
}

/** __shfl_up_sync with delta: lane i reads lane i-delta (or keeps own). */
template <typename T>
WarpReg<T>
ShuffleUp(const WarpReg<T>& reg, unsigned delta)
{
    WarpReg<T> out;
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        out[lane] = lane >= delta ? reg[lane - delta] : reg[lane];
    }
    return out;
}

/** __ballot_sync: bit i of the result is lane i's predicate. */
inline uint32_t
Ballot(const WarpReg<bool>& predicates)
{
    uint32_t mask = 0;
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        if (predicates[lane]) mask |= 1u << lane;
    }
    return mask;
}

/** Butterfly max reduction via shuffle-xor (log2(32) = 5 steps), exactly
 *  the warp reduction MPLG uses to find the subchunk maximum. */
template <typename T>
T
WarpReduceMax(WarpReg<T> reg)
{
    for (unsigned mask = kWarpSize / 2; mask > 0; mask >>= 1) {
        WarpReg<T> other = ShuffleXor(reg, mask);
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            reg[lane] = std::max(reg[lane], other[lane]);
        }
    }
    return reg[0];
}

/** Kogge-Stone inclusive scan within a warp via shuffle-up. */
template <typename T>
WarpReg<T>
WarpInclusiveScan(WarpReg<T> reg)
{
    for (unsigned delta = 1; delta < kWarpSize; delta <<= 1) {
        WarpReg<T> shifted = ShuffleUp(reg, delta);
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            if (lane >= delta) reg[lane] += shifted[lane];
        }
    }
    return reg;
}

/**
 * Block-wide exclusive scan: per-warp Kogge-Stone scans, a scan of the
 * warp totals, then a uniform add — the standard CUDA block scan built
 * from warp primitives and shared memory (paper Section 3.1). The result
 * must equal a serial exclusive scan, which tests assert.
 *
 * @return the block-wide total.
 */
template <typename T>
T
BlockExclusiveScan(ThreadBlock& block, std::span<T> values)
{
    const size_t n = values.size();
    if (n == 0) return T{};
    const size_t n_warp_groups = (n + kWarpSize - 1) / kWarpSize;
    std::vector<T> original(values.begin(), values.end());
    std::vector<T> warp_totals(n_warp_groups, T{});

    // Phase 1: per-warp inclusive scans (warps own contiguous 32-element
    // slices of the shared-memory array).
    for (size_t g = 0; g < n_warp_groups; ++g) {
        WarpReg<T> reg{};
        size_t base = g * kWarpSize;
        size_t count = std::min<size_t>(kWarpSize, n - base);
        for (size_t i = 0; i < count; ++i) reg[i] = values[base + i];
        WarpReg<T> scanned = WarpInclusiveScan(reg);
        for (size_t i = 0; i < count; ++i) values[base + i] = scanned[i];
        warp_totals[g] = scanned[count - 1];
    }

    // Phase 2: scan the warp totals (done by warp 0 in shared memory).
    T running{};
    for (size_t g = 0; g < n_warp_groups; ++g) {
        T next = running + warp_totals[g];
        warp_totals[g] = running;
        running = next;
    }

    // Phase 3: uniform add, converting inclusive to exclusive
    // (exclusive = warp prefix + inclusive - own value).
    for (size_t g = 0; g < n_warp_groups; ++g) {
        size_t base = g * kWarpSize;
        size_t count = std::min<size_t>(kWarpSize, n - base);
        for (size_t i = 0; i < count; ++i) {
            values[base + i] =
                warp_totals[g] + values[base + i] - original[base + i];
        }
    }
    (void)block;
    return running;
}

/**
 * Warp-cooperative 32x32 bit-matrix transpose via shuffle-xor: lane i
 * holds word i; afterwards lane j holds the j-th bit plane of the group
 * (bit i = original word i's bit). Used by the BIT stage (paper: the
 * transposition is implemented in log2(32) = 5 shuffle steps).
 */
WarpReg<uint32_t> WarpBitTranspose(WarpReg<uint32_t> rows);

}  // namespace fpc::gpusim

#endif  // FPC_GPUSIM_PRIMITIVES_H
