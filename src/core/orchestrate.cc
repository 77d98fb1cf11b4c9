#include "core/orchestrate.h"

#include <cstdint>
#include <numeric>

#include "core/telemetry.h"
#include "util/hash.h"

namespace fpc {

namespace {

ContainerHeader
MakeContainerHeader(Algorithm algorithm, size_t original_size,
                    size_t transformed_size, uint64_t checksum)
{
    ContainerHeader header;
    header.algorithm = static_cast<uint8_t>(algorithm);
    header.original_size = original_size;
    header.transformed_size = transformed_size;
    header.checksum = checksum;
    header.chunk_count = static_cast<uint32_t>(ChunkCountOf(transformed_size));
    return header;
}

/** Version-3 header for an adaptive encode: the pre-stage-free algorithm
 *  of @p algorithm's element width (kSPspeed for 4-byte, kDPspeed for
 *  8-byte) stands for the container, the per-chunk id table holds the
 *  real decisions, and transformed == original (adaptive containers never
 *  run a whole-input pre-stage). */
ContainerHeader
MakeAdaptiveContainerHeader(Algorithm algorithm, size_t original_size,
                            uint64_t checksum)
{
    const Algorithm representative = GetPipeline(algorithm).word_size == 8
                                         ? Algorithm::kDPspeed
                                         : Algorithm::kSPspeed;
    ContainerHeader header = MakeContainerHeader(
        representative, original_size, original_size, checksum);
    header.version = ContainerHeader::kVersionAdaptive;
    return header;
}

}  // namespace

EncodePlan::EncodePlan(ByteSpan chunk_src, bool adaptive,
                       std::span<ScratchArena> arenas)
    : chunk_src_(chunk_src),
      adaptive_(adaptive),
      arenas_(arenas),
      raw_flags_(ChunkCountOf(chunk_src.size()), 0),
      sizes_(raw_flags_.size(), 0),
      algorithm_ids_(adaptive ? raw_flags_.size() : 0, 0),
      parked_(arenas.size()),
      lookback_(raw_flags_.size()),
      prefix_size_(ContainerHeaderSize() + raw_flags_.size() * 4)
{
    // Uninitialised: only the prefix and the placed payloads are ever
    // written, so the bound's slack is never touched.
    out_.resize(prefix_size_ + chunk_src.size());
}

void
EncodePlan::Copy(size_t c, uint64_t offset, const std::byte* payload)
{
    if (sizes_[c] != 0) {
        std::memcpy(out_.data() + prefix_size_ + offset, payload, sizes_[c]);
    }
}

bool
EncodePlan::PlaceParked(Parked& parked)
{
    size_t placed = 0;
    for (const Parked::Entry& e : parked.entries) {
        uint64_t offset = 0;
        // A later entry waits on every predecessor this one waits on.
        if (!lookback_.TryResolvePrefix(e.chunk, offset)) break;
        Copy(e.chunk, offset,
             e.raw ? ChunkAt(chunk_src_, e.chunk).data()
                   : parked.bytes.data() + e.offset);
        ++placed;
    }
    parked.entries.erase(parked.entries.begin(),
                         parked.entries.begin() +
                             static_cast<std::ptrdiff_t>(placed));
    if (!parked.entries.empty()) return false;
    parked.bytes.clear();
    return true;
}

void
EncodePlan::EncodeChunkAt(size_t c, size_t worker, const PipelineSpec& spec,
                          ChunkEncodeFn encode, bool block_span)
{
    ScratchArena& scratch = arenas_[worker];
    TelemetryShard* shard = scratch.Telemetry();
    TraceRing* ring = shard != nullptr ? shard->trace : nullptr;
    if (ring != nullptr) ring->SetChunk(c);
    const uint64_t t0 = shard != nullptr ? TelemetryNowNs() : 0;
    const ByteSpan chunk = ChunkAt(chunk_src_, c);
    bool raw = false;
    ByteSpan payload;
    if (adaptive_) {
        payload = EncodeChunkAuto(chunk, raw, algorithm_ids_[c], scratch,
                                  encode);
    } else {
        payload = encode(spec, chunk, raw, scratch);
    }
    const uint64_t t_encoded =
        shard != nullptr && block_span ? TelemetryNowNs() : 0;

    FPC_CHECK(payload.size() <= chunk.size(),
              "chunk payload exceeds its raw bound");
    raw_flags_[c] = raw ? 1 : 0;
    sizes_[c] = static_cast<uint32_t>(payload.size());
    lookback_.PublishAggregate(c, payload.size());
    Parked& parked = parked_[worker];
    uint64_t offset = 0;
    if (PlaceParked(parked) && lookback_.TryResolvePrefix(c, offset)) {
        Copy(c, offset, payload.data());
    } else {
        // The payload view dies with the next chunk on this arena; a raw
        // chunk's view is the input itself, which outlives the plan.
        parked.entries.push_back({c, parked.bytes.size(), raw});
        if (!raw) AppendBytes(parked.bytes, payload);
    }

    if (shard == nullptr) return;
    const uint64_t t1 = TelemetryNowNs();
    const uint64_t chunk_end = block_span ? t_encoded : t1;
    shard->OnChunkEncode(chunk_end - t0);
    if (ring != nullptr) {
        ring->Record(TraceSpanKind::kChunk, kTraceEncode, 0, c, t0,
                     chunk_end);
        if (block_span) {
            ring->Record(TraceSpanKind::kBlock, kTraceEncode, 0, c, t0, t1);
        }
    }
}

Bytes
EncodePlan::Finish(Algorithm algorithm, size_t original_size,
                   uint64_t checksum)
{
    // Every chunk has published by now, so the parked ones all resolve.
    for (Parked& parked : parked_) {
        FPC_CHECK(PlaceParked(parked), "parked chunk left unplaced");
    }
    const ContainerHeader header =
        adaptive_ ? MakeAdaptiveContainerHeader(algorithm, original_size,
                                                checksum)
                  : MakeContainerHeader(algorithm, original_size,
                                        chunk_src_.size(), checksum);
    Bytes prefix;
    prefix.reserve(prefix_size_);
    WriteContainerPrefix(header, sizes_, raw_flags_, algorithm_ids_, prefix);
    FPC_CHECK(prefix.size() == prefix_size_, "container prefix size mismatch");
    std::memcpy(out_.data(), prefix.data(), prefix_size_);
    const size_t size = prefix_size_ + std::accumulate(sizes_.begin(),
                                                       sizes_.end(),
                                                       uint64_t{0});
    if (out_.capacity() >= kLargeBuffer) {
        // Its own mapping: the untouched slack is never backed.
        out_.resize(size);
        return std::move(out_);
    }
    // A heap block may reuse backed pages, so its slack would stay
    // resident for as long as the caller holds the container.
    Bytes exact(size);
    std::memcpy(exact.data(), out_.data(), size);
    return exact;
}

void
DecodeChunkAt(const ContainerView& view, const PipelineSpec& spec, size_t c,
              std::byte* dest, ScratchArena& scratch, ChunkDecodeFn decode,
              bool block_span)
{
    TelemetryShard* shard = scratch.Telemetry();
    TraceRing* ring = shard != nullptr ? shard->trace : nullptr;
    if (ring != nullptr) ring->SetChunk(c);
    const uint64_t t0 = shard != nullptr ? TelemetryNowNs() : 0;
    decode(ChunkSpec(view, spec, c),
           view.payload.subspan(view.chunk_offsets[c], view.chunk_sizes[c]),
           view.chunk_raw[c],
           ChunkSlotAt(dest, view.header.transformed_size, c), scratch);
    if (shard == nullptr) return;
    const uint64_t t1 = TelemetryNowNs();
    shard->OnChunkDecode(t1 - t0);
    if (ring != nullptr) {
        if (block_span) {
            ring->Record(TraceSpanKind::kBlock, kTraceDecode, 0, c, t0, t1);
        }
        ring->Record(TraceSpanKind::kChunk, kTraceDecode, 0, c, t0, t1);
    }
}

void
FirstError::Rethrow() const
{
    if (!Raised()) return;
    try {
        std::rethrow_exception(error_);
    } catch (const CorruptStreamError&) {
        throw;
    } catch (const std::exception& e) {
        throw CorruptStreamError(e.what());
    }
}

ByteSpan
EncodePreStage(const PipelineSpec& spec, ByteSpan input, ScratchArena& scratch,
               TelemetryShard* shard, Bytes& work)
{
    const size_t size = spec.pre.encoded_size(input.size());
    work.resize(size);
    const uint64_t t0 = shard != nullptr ? TelemetryNowNs() : 0;
    spec.pre.encode_into(input, work, scratch);
    if (shard != nullptr) {
        const uint64_t t1 = TelemetryNowNs();
        shard->OnStageEncode(spec.pre.id, input.size(), size, t1 - t0);
        if (shard->trace != nullptr) {
            shard->trace->Record(TraceSpanKind::kPre, kTraceEncode,
                                 static_cast<uint8_t>(spec.pre.id), 0, t0,
                                 t1);
        }
    }
    return work;
}

void
DecodePreStage(const PipelineSpec& spec, ByteSpan transformed,
               std::span<std::byte> out, ScratchArena& scratch,
               Telemetry* sink, TraceSink* trace)
{
    TelemetryShard* shard = scratch.Telemetry();
    const bool timed = shard != nullptr || sink != nullptr || trace != nullptr;
    const uint64_t t0 = timed ? TelemetryNowNs() : 0;
    spec.pre.decode_into(transformed, out, scratch);
    if (!timed) return;
    const uint64_t t1 = TelemetryNowNs();
    const auto stage = static_cast<uint8_t>(spec.pre.id);
    if (shard != nullptr) {
        shard->OnStageDecode(spec.pre.id, transformed.size(), out.size(),
                             t1 - t0);
        if (shard->trace != nullptr) {
            shard->trace->Record(TraceSpanKind::kPre, kTraceDecode, stage, 0,
                                 t0, t1);
        }
        return;
    }
    if (sink != nullptr) {
        TelemetryShard local;
        local.OnStageDecode(spec.pre.id, transformed.size(), out.size(),
                            t1 - t0);
        sink->Merge(local);
    }
    if (trace != nullptr) {
        TraceSpan span;
        span.start_ns = t0;
        span.dur_ns = t1 - t0;
        span.worker = 0;  // runs on the orchestrating thread
        span.kind = TraceSpanKind::kPre;
        span.dir = kTraceDecode;
        span.stage = stage;
        trace->Record(span);
    }
}

namespace {

/** Cross-check the header's sizes for @p spec before anything is sized
 *  from them. */
void
CheckSizes(const ContainerHeader& header, const PipelineSpec& spec)
{
    if (spec.pre.decode == nullptr) {
        FPC_PARSE_CHECK(header.transformed_size == header.original_size,
                        "transformed size mismatch for pre-stage-free "
                        "algorithm");
    } else {
        // FCM (the only pre-stage) always expands, so a valid container's
        // declared original size never exceeds its transformed size; a
        // forged original_size cannot drive an allocation beyond the
        // file-bounded transformed stream.
        FPC_PARSE_CHECK_AT(header.original_size <= header.transformed_size,
                           "original size exceeds transformed size",
                           "container", 8);
    }
}

/** Decode a size-checked @p view into @p out and verify its checksum. */
void
DecodeView(const ContainerView& view, const PipelineSpec& spec,
           std::span<std::byte> out, const DecodeChunksFn& decode_chunks,
           const PreDecodeFn& pre_decode)
{
    if (spec.pre.decode == nullptr) {
        decode_chunks(view, spec, out.data());
    } else {
        // The chunk decoders write every byte of the transformed stream
        // or throw (ParseContainer pins chunk_count to transformed_size),
        // so it is left uninitialised, like `out`.
        Bytes work(view.header.transformed_size);
        decode_chunks(view, spec, work.data());
        pre_decode(spec, work, out);
    }
    FPC_PARSE_CHECK(Checksum64(ByteSpan(out.data(), out.size())) ==
                        view.header.checksum,
                    "content checksum mismatch");
}

const PipelineSpec&
FrameSpec(const ContainerView& view)
{
    return GetPipeline(static_cast<Algorithm>(view.header.algorithm));
}

}  // namespace

Bytes
RunDecompress(ByteSpan compressed, const DecodeChunksFn& decode_chunks,
              const PreDecodeFn& pre_decode)
{
    const ContainerView view = ParseContainer(compressed);
    const PipelineSpec& spec = FrameSpec(view);
    CheckSizes(view.header, spec);
    Bytes out(view.header.original_size);
    DecodeView(view, spec, out, decode_chunks, pre_decode);
    return out;
}

void
RunDecompressInto(ByteSpan compressed, std::span<std::byte> out,
                  const DecodeChunksFn& decode_chunks,
                  const PreDecodeFn& pre_decode)
{
    const ContainerView view = ParseContainer(compressed);
    const PipelineSpec& spec = FrameSpec(view);
    if (out.size() != view.header.original_size) {
        throw UsageError("DecompressInto: output span must be exactly " +
                         std::to_string(view.header.original_size) +
                         " bytes");
    }
    CheckSizes(view.header, spec);
    DecodeView(view, spec, out, decode_chunks, pre_decode);
}

Bytes
RunDecompressSerial(ByteSpan compressed, ScratchArena& scratch)
{
    return RunDecompress(
        compressed,
        [&scratch](const ContainerView& view, const PipelineSpec& spec,
                   std::byte* dest) {
            for (size_t c = 0; c < view.header.chunk_count; ++c) {
                DecodeChunkAt(view, spec, c, dest, scratch, &DecodeChunk);
            }
        },
        [&scratch](const PipelineSpec& spec, ByteSpan transformed,
                   std::span<std::byte> out) {
            DecodePreStage(spec, transformed, out, scratch, nullptr,
                           nullptr);
        });
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

}  // namespace fpc
