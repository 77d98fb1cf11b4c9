/**
 * @file
 * GPU-path chunk codecs built on the execution-model simulator
 * (src/gpusim/device.h). Each kernel mirrors the CUDA parallelization the
 * paper describes in Section 3 — chunks map to thread blocks, MPLG
 * subchunks and BIT groups map to warps, RZE compaction uses block-wide
 * prefix sums. FCM runs the shared CPU transform (transforms/fcm.cc).
 *
 * The wire format is identical to the CPU path; tests assert byte
 * equality, which is the cross-device compatibility claim of the paper.
 */
#ifndef FPC_GPUSIM_KERNELS_H
#define FPC_GPUSIM_KERNELS_H

#include "core/pipeline.h"
#include "util/common.h"

namespace fpc::gpusim {

/**
 * GPU-path equivalent of fpc::EncodeChunk (one thread block per chunk).
 * Mirrors the CPU contract: stage ping-pong through @p scratch's pipeline
 * buffers, result returned as a view into the arena (or @p chunk itself
 * when stored raw), valid until the next chunk call on the same arena.
 */
ByteSpan EncodeChunkDevice(const PipelineSpec& spec, ByteSpan chunk,
                           bool& raw, ScratchArena& scratch);

/** GPU-path equivalent of fpc::DecodeChunk: writes exactly @p dest.size()
 *  bytes into the chunk's slot of the output buffer. */
void DecodeChunkDevice(const PipelineSpec& spec, ByteSpan payload, bool raw,
                       std::span<std::byte> dest, ScratchArena& scratch);

}  // namespace fpc::gpusim

#endif  // FPC_GPUSIM_KERNELS_H
