/**
 * @file
 * Shared compression/decompression orchestration used by every executor
 * (core/executor.h). The paper's container pipeline is the same on both
 * device paths — partition the transformed stream into 16 KiB chunks,
 * encode each chunk independently (raw fallback when a chunk expands),
 * resolve each chunk's write position with the decoupled look-back, and
 * copy its payload once into the one container buffer — and only the
 * *scheduling* of the chunk work differs (OpenMP parallel-for vs
 * simulated grid launch). This file owns everything except the
 * scheduling, so the executors cannot drift apart: identical partition
 * math, identical chunk tables, identical prefix bytes, identical
 * checksum policy, one decompress driver.
 */
#ifndef FPC_CORE_ORCHESTRATE_H
#define FPC_CORE_ORCHESTRATE_H

#include <atomic>
#include <exception>
#include <functional>
#include <mutex>

#include "core/adaptive.h"
#include "core/arena.h"
#include "core/container.h"
#include "core/pipeline.h"
#include "core/types.h"
#include "util/common.h"
#include "util/scan.h"

namespace fpc {

/** Number of 16 KiB chunks covering a transformed stream. */
inline size_t
ChunkCountOf(size_t transformed_size)
{
    return (transformed_size + kChunkSize - 1) / kChunkSize;
}

/** The @p c-th chunk of the transformed stream (last one may be short). */
inline ByteSpan
ChunkAt(ByteSpan chunk_src, size_t c)
{
    const size_t begin = c * kChunkSize;
    return chunk_src.subspan(begin,
                             std::min(kChunkSize, chunk_src.size() - begin));
}

/** The @p c-th chunk's slot in a decode destination buffer. */
inline std::span<std::byte>
ChunkSlotAt(std::byte* dest, size_t transformed_size, size_t c)
{
    const size_t begin = c * kChunkSize;
    return {dest + begin, std::min(kChunkSize, transformed_size - begin)};
}

/** A backend's chunk decoder (DecodeChunk / gpusim::DecodeChunkDevice). */
using ChunkDecodeFn = void (*)(const PipelineSpec&, ByteSpan, bool,
                               std::span<std::byte>, ScratchArena&);

/**
 * The container of one chunk-parallel encode, written in a single pass
 * (paper Section 3). The buffer is sized by an upper bound — container
 * prefix plus the transformed size, since the raw fallback caps every
 * chunk at its input size — and left uninitialised. Each chunk publishes
 * its size to a decoupled look-back (util/scan.h) and its payload is
 * copied once, from the worker's arena straight to its final offset.
 *
 * A chunk that finishes before a predecessor has published cannot know
 * its offset yet. Rather than wait, its worker parks the payload (a
 * pointer for a raw chunk, a copy otherwise) and places it once the
 * predecessors are in: at its next chunk, or at Finish. Workers thus
 * never stall on each other. Parking is common — neighbouring chunks
 * start together, and on checkpoint at 4 threads about one chunk in five
 * is parked — and cheaper than waiting, which cost 6–16% of 4-thread
 * compress throughput there (DESIGN.md "One output path").
 * Workers write disjoint chunk indices and byte ranges; nothing else is
 * synchronised before the scheduler's join.
 */
class EncodePlan {
 public:
    /** Plan for @p chunk_src (the transformed stream, or the input when
     *  the pipeline has no whole-input stage), encoded by one worker per
     *  arena of @p arenas; @p adaptive records a per-chunk algorithm id
     *  (container v3). */
    EncodePlan(ByteSpan chunk_src, bool adaptive,
               std::span<ScratchArena> arenas);

    size_t ChunkCount() const { return sizes_.size(); }

    /**
     * Encode chunk @p c on worker @p worker's arena with @p encode
     * (adaptively for an adaptive plan) and place its payload, or park
     * it until its predecessors have published. Any chunk order is
     * correct; the schedulers' index order lets most chunks place at
     * once.
     * Times the chunk into the arena's telemetry shard and trace ring:
     * the chunk span covers encode and placement, unless @p block_span,
     * in which case (a grid launch) the chunk span is the encode alone
     * and a block span covers the look-back hand-off as well.
     */
    void EncodeChunkAt(size_t c, size_t worker, const PipelineSpec& spec,
                       ChunkEncodeFn encode, bool block_span = false);

    /**
     * Place any parked payloads, write the container header (an input of
     * @p original_size bytes compressed with @p algorithm, whose
     * Checksum64 is @p checksum) and the chunk table in front of the
     * payloads, and return the container trimmed to its size. A buffer
     * of kLargeBuffer or more is its own mapping, whose never-written
     * slack holds no resident memory, so it is trimmed in place; a
     * smaller one comes from the heap, where the slack may sit on backed
     * pages, so it is copied into an exact-size buffer.
     * Byte-identical whatever scheduler placed the chunks. Call once,
     * after the scheduler's join.
     */
    Bytes Finish(Algorithm algorithm, size_t original_size,
                 uint64_t checksum);

 private:
    /** A worker's payloads still waiting for their offsets, in the order
     *  it encoded them. Cache-line aligned: each worker writes only its
     *  own. */
    struct alignas(64) Parked {
        struct Entry {
            size_t chunk;
            size_t offset;  ///< into bytes; unused for a raw chunk
            bool raw;
        };
        std::vector<Entry> entries;
        Bytes bytes;
    };

    /** Place @p worker's parked payloads whose offsets resolve; true when
     *  none is left. */
    bool PlaceParked(Parked& parked);
    void Copy(size_t c, uint64_t offset, const std::byte* payload);

    ByteSpan chunk_src_;
    bool adaptive_;
    std::span<ScratchArena> arenas_;
    std::vector<uint8_t> raw_flags_;
    std::vector<uint32_t> sizes_;
    std::vector<uint8_t> algorithm_ids_;  ///< adaptive plans only
    std::vector<Parked> parked_;          ///< one per worker
    DecoupledLookback lookback_;
    size_t prefix_size_;
    Bytes out_;
};

/** The pipeline that decodes chunk @p c of @p view: the recorded
 *  per-chunk pipeline for a v3 view, @p frame_spec otherwise. */
inline const PipelineSpec&
ChunkSpec(const ContainerView& view, const PipelineSpec& frame_spec,
          size_t c)
{
    return view.chunk_algorithms.empty()
               ? frame_spec
               : GetChunkPipeline(
                     static_cast<Algorithm>(view.chunk_algorithms[c]));
}

/**
 * Run @p spec's whole-input stage (FCM) over @p input, with
 * scratch.StageThreads() threads, into @p work, and return the
 * transformed stream. @p work is resized uninitialised —
 * Stage::encode_into writes every byte — so its pages are first touched
 * by the stage's threads, not by a serial zero-fill. The stage's
 * telemetry and trace span go to @p shard when it is non-null.
 */
ByteSpan EncodePreStage(const PipelineSpec& spec, ByteSpan input,
                        ScratchArena& scratch, TelemetryShard* shard,
                        Bytes& work);

/**
 * Decode chunk @p c of @p view with @p decode on @p scratch into its slot
 * of @p dest, timing it into the arena's telemetry shard and trace ring
 * (a chunk span; with @p block_span, a grid launch's block span over the
 * same extent as well).
 */
void DecodeChunkAt(const ContainerView& view, const PipelineSpec& spec,
                   size_t c, std::byte* dest, ScratchArena& scratch,
                   ChunkDecodeFn decode, bool block_span = false);

/**
 * The first exception thrown inside a parallel chunk loop: workers skip
 * their remaining chunks once one is captured, and Rethrow() reports it
 * after the join as a CorruptStreamError (keeping stage/offset context).
 */
class FirstError {
 public:
    bool Raised() const { return raised_.load(std::memory_order_relaxed); }

    /** Record the exception in flight; call from a catch block. */
    void
    Capture() noexcept
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!raised_.exchange(true)) error_ = std::current_exception();
    }

    void Rethrow() const;

 private:
    std::atomic<bool> raised_{false};
    std::mutex mutex_;
    std::exception_ptr error_;
};

/**
 * Run @p spec's whole-input stage decode (FCM) over @p transformed into
 * @p out, which must be exactly the decoded size and may be
 * uninitialised. Its stage counters and span go to @p scratch's
 * telemetry shard when one is attached (a streaming-pool worker), and
 * otherwise straight to @p sink / @p trace: the executors run it outside
 * any chunk run scope.
 */
void DecodePreStage(const PipelineSpec& spec, ByteSpan transformed,
                    std::span<std::byte> out, ScratchArena& scratch,
                    Telemetry* sink, TraceSink* trace);

/** Executor hook: decode every chunk of @p view into @p dest, which is
 *  sized view.header.transformed_size and may be uninitialised: the hook
 *  writes every byte of it or throws. */
using DecodeChunksFn = std::function<void(
    const ContainerView& view, const PipelineSpec& spec, std::byte* dest)>;

/** Executor hook: the whole-input pre-stage decode (FCM for DPratio) of
 *  @p transformed into exactly-sized, possibly uninitialised @p out
 *  (DecodePreStage). Only invoked when the pipeline has a pre-stage. */
using PreDecodeFn = std::function<void(
    const PipelineSpec& spec, ByteSpan transformed, std::span<std::byte> out)>;

/**
 * The one decompression driver: parse + validate the container, decode
 * the chunks through @p decode_chunks straight into @p out when the
 * algorithm has no whole-input stage, or into a transformed-stream buffer
 * that @p pre_decode then decodes into @p out, and verify the content
 * checksum. @p out must be exactly original_size bytes (UsageError
 * otherwise) and may be uninitialised: every byte is written before the
 * checksum reads it. Throws CorruptStreamError on any mismatch.
 */
void RunDecompressInto(ByteSpan compressed, std::span<std::byte> out,
                       const DecodeChunksFn& decode_chunks,
                       const PreDecodeFn& pre_decode);

/** RunDecompressInto on a new, uninitialised buffer of the container's
 *  original size (bounded by the validated header before allocating). */
Bytes RunDecompress(ByteSpan compressed, const DecodeChunksFn& decode_chunks,
                    const PreDecodeFn& pre_decode);

/**
 * Synthetic sub-container over chunks [@p first_chunk, @p chunk_end) of a
 * parsed frame prefix, whose payload bytes are @p payload (exactly those
 * chunks' stored bytes, contiguous as on disk). The sub-view's
 * transformed_size covers only the selected chunks, so ChunkSlotAt math —
 * and therefore every Executor::DecodeChunks backend — applies unchanged.
 * The content checksum does NOT describe the sub-range; callers verify
 * ranged reads against a full decode in tests, not per call.
 */
ContainerView MakeChunkRangeView(const ContainerPrefix& prefix,
                                 size_t first_chunk, size_t chunk_end,
                                 ByteSpan payload);

/** Logical (uncompressed) bytes covered by chunks
 *  [@p first_chunk, @p chunk_end) of a stream of @p transformed_size. */
size_t ChunkRangeBytes(size_t transformed_size, size_t first_chunk,
                       size_t chunk_end);

/**
 * RunDecompress on one thread for streaming-pool workers: every chunk,
 * and the pre-stage when the algorithm has one, decodes on the calling
 * thread against the caller's persistent @p scratch arena, so a worker's
 * buffers stay warm across frames. Telemetry flows through the shard
 * attached to @p scratch, if any — the pool merges shards once, at join.
 */
Bytes RunDecompressSerial(ByteSpan compressed, ScratchArena& scratch);

}  // namespace fpc

#endif  // FPC_CORE_ORCHESTRATE_H
