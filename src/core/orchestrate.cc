#include "core/orchestrate.h"

#include <cstdint>

#include "core/telemetry.h"
#include "util/hash.h"
#include "util/scan.h"

namespace fpc {

ContainerHeader
MakeContainerHeader(Algorithm algorithm, ByteSpan input,
                    size_t transformed_size)
{
    ContainerHeader header;
    header.algorithm = static_cast<uint8_t>(algorithm);
    header.original_size = input.size();
    header.transformed_size = transformed_size;
    header.checksum = Checksum64(input);
    header.chunk_count = static_cast<uint32_t>(ChunkCountOf(transformed_size));
    return header;
}

Algorithm
AdaptiveRepresentative(Algorithm algorithm)
{
    return GetPipeline(algorithm).word_size == 8 ? Algorithm::kDPspeed
                                                 : Algorithm::kSPspeed;
}

ContainerHeader
MakeAdaptiveContainerHeader(Algorithm algorithm, ByteSpan input)
{
    ContainerHeader header = MakeContainerHeader(
        AdaptiveRepresentative(algorithm), input, input.size());
    header.version = ContainerHeader::kVersionAdaptive;
    return header;
}

WritePositions
ComputeWritePositions(const std::vector<uint32_t>& sizes)
{
    WritePositions wp;
    wp.offsets.assign(sizes.begin(), sizes.end());
    wp.total = ExclusiveScan(std::span<uint64_t>(wp.offsets));
    return wp;
}

Bytes
AssembleContainer(const ContainerHeader& header, const EncodePlan& plan,
                  std::span<const uint64_t> offsets, uint64_t total,
                  std::span<ScratchArena> arenas, int threads)
{
    const size_t n_chunks = plan.ChunkCount();
    FPC_CHECK(offsets.size() == n_chunks, "write-position count mismatch");

    const size_t prefix_size = ContainerHeaderSize() + n_chunks * 4;
    Bytes out;
    out.reserve(prefix_size + total);
    WriteContainerPrefix(header, plan.sizes, plan.raw_flags,
                         plan.algorithm_ids, out);
    FPC_CHECK(out.size() == prefix_size, "container prefix size mismatch");
    out.resize(prefix_size + total);

    // Each payload goes to its prefix-summed offset; chunks are disjoint,
    // so placement parallelizes trivially.
    std::byte* payload_base = out.data() + prefix_size;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(std::max(threads, 1))
#endif
    for (std::int64_t c = 0; c < static_cast<std::int64_t>(n_chunks); ++c) {
        FPC_CHECK(offsets[c] + plan.sizes[c] <= total,
                  "write position out of range");
        if (plan.sizes[c] == 0) continue;
        const EncodePlan::Ref& ref = plan.refs[c];
        const Bytes& retained = arenas[ref.worker].Retained();
        std::memcpy(payload_base + offsets[c], retained.data() + ref.offset,
                    plan.sizes[c]);
    }
    (void)threads;
    return out;
}

namespace {

void
CheckContent(const ContainerHeader& header, ByteSpan out)
{
    FPC_PARSE_CHECK(out.size() == header.original_size,
                    "decompressed size mismatch");
    FPC_PARSE_CHECK(Checksum64(out) == header.checksum,
                    "content checksum mismatch");
}

/**
 * Chunk-decode target for the transformed stream of a pipeline with a
 * whole-input stage. Left uninitialised: ParseContainer pins chunk_count
 * to transformed_size, so the chunk decoders write every byte or throw
 * before any is read, and the decoding workers touch the pages first
 * instead of a serial zero-fill.
 */
std::unique_ptr<std::byte[]>
TransformedBuffer(const ContainerView& view)
{
    return std::unique_ptr<std::byte[]>(
        new std::byte[view.header.transformed_size]);
}

}  // namespace

ByteSpan
EncodePreStage(const PipelineSpec& spec, ByteSpan input, ScratchArena& scratch,
               TelemetryShard* shard, std::unique_ptr<std::byte[]>& work)
{
    const size_t size = spec.pre.encoded_size(input.size());
    work.reset(new std::byte[size]);
    const uint64_t t0 = shard != nullptr ? TelemetryNowNs() : 0;
    spec.pre.encode_into(input, {work.get(), size}, scratch);
    if (shard != nullptr) {
        const uint64_t t1 = TelemetryNowNs();
        shard->OnStageEncode(spec.pre.id, input.size(), size, t1 - t0);
        if (shard->trace != nullptr) {
            shard->trace->Record(TraceSpanKind::kPre, kTraceEncode,
                                 static_cast<uint8_t>(spec.pre.id), 0, t0,
                                 t1);
        }
    }
    return {work.get(), size};
}

Bytes
RunDecompress(ByteSpan compressed, const DecodeChunksFn& decode_chunks,
              const PreDecodeFn& pre_decode)
{
    ContainerView view = ParseContainer(compressed);
    const auto algorithm = static_cast<Algorithm>(view.header.algorithm);
    const PipelineSpec& spec = GetPipeline(algorithm);

    if (spec.pre.decode == nullptr) {
        // No whole-input stage: chunks decode straight into the result.
        FPC_PARSE_CHECK(
            view.header.transformed_size == view.header.original_size,
            "transformed size mismatch for pre-stage-free algorithm");
        Bytes out(view.header.original_size);
        decode_chunks(view, spec, out.data());
        CheckContent(view.header, ByteSpan(out));
        return out;
    }

    // FCM (the only pre-stage) always expands, so a valid container's
    // declared original size never exceeds its transformed size. Check
    // before reserving `out` so a forged original_size cannot drive an
    // allocation beyond the file-bounded transformed stream.
    FPC_PARSE_CHECK_AT(
        view.header.original_size <= view.header.transformed_size,
        "original size exceeds transformed size", "container", 8);
    const auto work = TransformedBuffer(view);
    decode_chunks(view, spec, work.get());
    Bytes out;
    out.reserve(view.header.original_size);
    pre_decode(spec, ByteSpan(work.get(), view.header.transformed_size),
               out);
    CheckContent(view.header, ByteSpan(out));
    return out;
}

void
RunDecompressInto(ByteSpan compressed, std::span<std::byte> out,
                  const DecodeChunksFn& decode_chunks,
                  const PreDecodeFn& pre_decode)
{
    ContainerView view = ParseContainer(compressed);
    const auto algorithm = static_cast<Algorithm>(view.header.algorithm);
    const PipelineSpec& spec = GetPipeline(algorithm);
    if (out.size() != view.header.original_size) {
        throw UsageError("DecompressInto: output span must be exactly " +
                         std::to_string(view.header.original_size) +
                         " bytes");
    }

    if (spec.pre.decode == nullptr) {
        FPC_PARSE_CHECK(
            view.header.transformed_size == view.header.original_size,
            "transformed size mismatch for pre-stage-free algorithm");
        decode_chunks(view, spec, out.data());
    } else {
        FPC_PARSE_CHECK_AT(
            view.header.original_size <= view.header.transformed_size,
            "original size exceeds transformed size", "container", 8);
        // The whole-input pre-stage needs the full transformed stream.
        const auto work = TransformedBuffer(view);
        decode_chunks(view, spec, work.get());
        Bytes restored;
        restored.reserve(out.size());
        pre_decode(spec, ByteSpan(work.get(), view.header.transformed_size),
                   restored);
        FPC_PARSE_CHECK(restored.size() == out.size(),
                        "decompressed size mismatch");
        std::memcpy(out.data(), restored.data(), out.size());
    }
    FPC_PARSE_CHECK(Checksum64(ByteSpan(out.data(), out.size())) ==
                        view.header.checksum,
                    "content checksum mismatch");
}

size_t
ChunkRangeBytes(size_t transformed_size, size_t first_chunk,
                size_t chunk_end)
{
    const size_t n_chunks = ChunkCountOf(transformed_size);
    FPC_CHECK(first_chunk <= chunk_end && chunk_end <= n_chunks,
              "chunk range out of bounds");
    if (first_chunk == chunk_end) return 0;
    const size_t last_begin = (chunk_end - 1) * kChunkSize;
    return (chunk_end - 1 - first_chunk) * kChunkSize +
           std::min(kChunkSize, transformed_size - last_begin);
}

ContainerView
MakeChunkRangeView(const ContainerPrefix& prefix, size_t first_chunk,
                   size_t chunk_end, ByteSpan payload)
{
    FPC_CHECK(first_chunk <= chunk_end &&
                  chunk_end <= prefix.chunk_sizes.size(),
              "chunk range out of bounds");
    const size_t n = chunk_end - first_chunk;
    ContainerView view;
    view.header = prefix.header;
    view.header.chunk_count = static_cast<uint32_t>(n);
    const size_t covered = ChunkRangeBytes(
        prefix.header.transformed_size, first_chunk, chunk_end);
    view.header.transformed_size = covered;
    // The sub-range has no checksum of its own; original_size mirrors the
    // covered bytes so pre-stage-free invariants hold, and the caller is
    // responsible for not running a content check against this view.
    view.header.original_size = covered;
    view.header.checksum = 0;

    view.chunk_sizes.assign(prefix.chunk_sizes.begin() + first_chunk,
                            prefix.chunk_sizes.begin() + chunk_end);
    view.chunk_raw.assign(prefix.chunk_raw.begin() + first_chunk,
                          prefix.chunk_raw.begin() + chunk_end);
    if (!prefix.chunk_algorithms.empty()) {
        view.chunk_algorithms.assign(
            prefix.chunk_algorithms.begin() + first_chunk,
            prefix.chunk_algorithms.begin() + chunk_end);
    }
    view.chunk_offsets.resize(n);
    size_t offset = 0;
    for (size_t c = 0; c < n; ++c) {
        view.chunk_offsets[c] = offset;
        offset += view.chunk_sizes[c];
    }
    FPC_CHECK(payload.size() == offset, "range payload size mismatch");
    view.payload = payload;
    return view;
}

Bytes
RunDecompressSerial(ByteSpan compressed, ScratchArena& scratch)
{
    ContainerView view = ParseContainer(compressed);
    const auto algorithm = static_cast<Algorithm>(view.header.algorithm);
    const PipelineSpec& spec = GetPipeline(algorithm);
    const size_t transformed_size = view.header.transformed_size;

    const auto decode_all = [&](std::byte* dest) {
        TelemetryShard* shard = scratch.Telemetry();
        TraceRing* ring = shard != nullptr ? shard->trace : nullptr;
        for (uint32_t c = 0; c < view.header.chunk_count; ++c) {
            if (ring != nullptr) ring->SetChunk(c);
            const uint64_t t0 = shard != nullptr ? TelemetryNowNs() : 0;
            ByteSpan payload = view.payload.subspan(view.chunk_offsets[c],
                                                    view.chunk_sizes[c]);
            DecodeChunk(ChunkSpec(view, spec, c), payload, view.chunk_raw[c],
                        ChunkSlotAt(dest, transformed_size, c), scratch);
            if (shard != nullptr) {
                const uint64_t t1 = TelemetryNowNs();
                shard->OnChunkDecode(t1 - t0);
                if (ring != nullptr) {
                    ring->Record(TraceSpanKind::kChunk, kTraceDecode, 0, c,
                                 t0, t1);
                }
            }
        }
    };

    if (spec.pre.decode == nullptr) {
        FPC_PARSE_CHECK(
            view.header.transformed_size == view.header.original_size,
            "transformed size mismatch for pre-stage-free algorithm");
        Bytes out(view.header.original_size);
        decode_all(out.data());
        CheckContent(view.header, ByteSpan(out));
        return out;
    }

    FPC_PARSE_CHECK_AT(
        view.header.original_size <= view.header.transformed_size,
        "original size exceeds transformed size", "container", 8);
    Bytes work(view.header.transformed_size);
    decode_all(work.data());
    Bytes out;
    out.reserve(view.header.original_size);
    {
        TelemetryShard* shard = scratch.Telemetry();
        const uint64_t t0 = shard != nullptr ? TelemetryNowNs() : 0;
        spec.pre.decode(ByteSpan(work), out, scratch);
        if (shard != nullptr) {
            const uint64_t t1 = TelemetryNowNs();
            shard->OnStageDecode(spec.pre.id, work.size(), out.size(),
                                 t1 - t0);
            if (shard->trace != nullptr) {
                shard->trace->Record(TraceSpanKind::kPre, kTraceDecode,
                                     static_cast<uint8_t>(spec.pre.id), 0,
                                     t0, t1);
            }
        }
    }
    CheckContent(view.header, ByteSpan(out));
    return out;
}

}  // namespace fpc
