#include "gpusim/launch.h"

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/arena.h"
#include "core/orchestrate.h"
#include "core/telemetry.h"
#include "gpusim/kernels.h"
#include "util/hash.h"

namespace fpc::gpusim {

namespace {

/** Arenas for the host threads that model SMs in Device::Launch. */
size_t
MaxLaunchWorkers()
{
#ifdef _OPENMP
    return static_cast<size_t>(omp_get_max_threads());
#else
    return 1;
#endif
}

size_t
LaunchWorkerId()
{
#ifdef _OPENMP
    return static_cast<size_t>(omp_get_thread_num());
#else
    return 0;
#endif
}

/** Chunk decode hook for the orchestration driver: one thread block per
 *  chunk, scheduled by the device. */
DecodeChunksFn
DecodeChunksOn(const Device& device, Telemetry* sink, TraceSink* trace)
{
    return [&device, sink, trace](const ContainerView& view,
                                  const PipelineSpec& spec,
                                  std::byte* dest) {
        std::vector<ScratchArena> arenas(MaxLaunchWorkers());
        TelemetryRunScope scope(sink, trace, MaxLaunchWorkers());
        scope.HintChunks(view.header.chunk_count);
        scope.Attach(arenas);
        FirstError error;
        device.Launch(view.header.chunk_count, [&](ThreadBlock& block) {
            if (error.Raised()) return;
            try {
                DecodeChunkAt(view, spec, block.BlockId(), dest,
                              arenas[LaunchWorkerId()], &DecodeChunkDevice,
                              /*block_span=*/true);
            } catch (...) {
                error.Capture();
            }
        });
        scope.Finish(arenas);
        error.Rethrow();
    };
}

/** Whole-input pre-stage hook (FCM) on the device path; like the encode
 *  side it spans the device, one thread per launch worker. */
PreDecodeFn
DevicePreDecode(Telemetry* sink, TraceSink* trace)
{
    return [sink, trace](const PipelineSpec& spec, ByteSpan transformed,
                         std::span<std::byte> out) {
        ScratchArena pre_scratch;
        pre_scratch.SetStageThreads(static_cast<int>(MaxLaunchWorkers()));
        DecodePreStage(spec, transformed, out, pre_scratch, sink, trace);
    };
}

}  // namespace

Bytes
CompressOnDevice(const Device& device, Algorithm algorithm, ByteSpan input,
                 Telemetry* sink, TraceSink* trace, bool adaptive)
{
    const PipelineSpec& spec = GetPipeline(algorithm);
    TelemetryRunScope scope(sink, trace, MaxLaunchWorkers());

    // Adaptive encodes never run a whole-input pre-stage: each block
    // picks its chunk's (possibly FCM-chunked) pipeline below.
    Bytes work;
    ByteSpan chunk_src = input;
    if (!adaptive && spec.pre.encode != nullptr) {
        // The whole-input stage spans the device: one thread per worker
        // that models an SM.
        ScratchArena pre_scratch;
        pre_scratch.SetStageThreads(static_cast<int>(MaxLaunchWorkers()));
        chunk_src = EncodePreStage(spec, input, pre_scratch,
                                   scope.MainShard(), work);
    }

    std::vector<ScratchArena> arenas(MaxLaunchWorkers());
    EncodePlan plan(chunk_src, adaptive, arenas);
    scope.HintChunks(plan.ChunkCount());
    scope.Attach(arenas);

    // One thread block per chunk; after encoding, each block publishes its
    // compressed size, resolves its write position by looking back, and
    // copies its payload there — the cpu executor's placement.
    device.Launch(plan.ChunkCount(), [&](ThreadBlock& block) {
        plan.EncodeChunkAt(block.BlockId(), LaunchWorkerId(), spec,
                           &EncodeChunkDevice, /*block_span=*/true);
    });
    Bytes out = plan.Finish(algorithm, input.size(), Checksum64(input));
    scope.Finish(arenas);
    return out;
}

Bytes
DecompressOnDevice(const Device& device, ByteSpan compressed,
                   Telemetry* sink, TraceSink* trace)
{
    return RunDecompress(compressed, DecodeChunksOn(device, sink, trace),
                         DevicePreDecode(sink, trace));
}

void
DecompressIntoOnDevice(const Device& device, ByteSpan compressed,
                       std::span<std::byte> out, Telemetry* sink,
                       TraceSink* trace)
{
    RunDecompressInto(compressed, out, DecodeChunksOn(device, sink, trace),
                      DevicePreDecode(sink, trace));
}

void
DecodeChunksOnDevice(const Device& device, const ContainerView& view,
                     const PipelineSpec& spec, std::byte* dest,
                     Telemetry* sink, TraceSink* trace)
{
    DecodeChunksOn(device, sink, trace)(view, spec, dest);
}

}  // namespace fpc::gpusim
