#include "core/executor.h"

#include <cctype>
#include <cstdint>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/orchestrate.h"
#include "core/telemetry.h"
#include "gpusim/launch.h"
#include "util/hash.h"

namespace fpc {

Options&
Options::with_executor(const std::string& name)
{
    executor = &GetExecutor(name);
    return *this;
}

Options&
Options::with_isa(const std::string& name)
{
    const simd::Isa requested = simd::ParseIsa(name);
    if (!simd::IsaAvailable(requested)) {
        throw UsageError("ISA \"" + name +
                         "\" is not available on this CPU/build");
    }
    isa = static_cast<uint8_t>(requested);
    return *this;
}

simd::Isa
ResolveIsa(const Options& options)
{
    if (options.isa == Options::kIsaAuto) return simd::DefaultIsa();
    const auto requested = static_cast<simd::Isa>(options.isa);
    if (!simd::IsaAvailable(requested)) {
        // A raw Options::isa value (bypassing with_isa) above the
        // machine's capability would silently change behaviour; reject.
        throw UsageError(std::string("ISA \"") + simd::IsaName(requested) +
                         "\" is not available on this CPU/build");
    }
    return requested;
}

namespace {

int
EffectiveThreads(const Options& options)
{
#ifdef _OPENMP
    return options.threads > 0 ? options.threads : omp_get_max_threads();
#else
    (void)options;
    return 1;
#endif
}

/** Index of the calling worker within the current parallel region. */
int
WorkerId()
{
#ifdef _OPENMP
    return omp_get_thread_num();
#else
    return 0;
#endif
}

/**
 * The paper's CPU implementation: chunks dynamically scheduled across
 * OpenMP threads (Options::threads), per-thread scratch arenas, and the
 * one-pass look-back container placement of core/orchestrate.h.
 */
class CpuExecutor final : public Executor {
 public:
    const std::string&
    Name() const override
    {
        static const std::string name = "cpu";
        return name;
    }

    ExecutorCaps
    Capabilities() const override
    {
        return {.chunk_parallel = true, .device_kernels = false,
                .profile = nullptr};
    }

    Bytes
    Compress(Algorithm algorithm, ByteSpan input,
             const Options& options) const override
    {
        const PipelineSpec& spec = GetPipeline(algorithm);
        const int threads = EffectiveThreads(options);
        TelemetryRunScope scope(SinkOf(options), TraceOf(options),
                                static_cast<size_t>(threads));

        // Whole-input pre-stage (FCM); algorithms without one chunk the
        // input in place — no staging copy. Adaptive encodes never run a
        // pre-stage: each chunk picks its own (possibly FCM-chunked)
        // pipeline in the loop below.
        const bool adaptive = options.adaptive;
        Bytes work;
        ByteSpan chunk_src = input;
        if (!adaptive && spec.pre.encode != nullptr) {
            ScratchArena pre_scratch;
            pre_scratch.SetKernelIsa(ResolveIsa(options));
            pre_scratch.SetStageThreads(threads);
            chunk_src = EncodePreStage(spec, input, pre_scratch,
                                       scope.MainShard(), work);
        }

        // Chunks are dynamically assigned to threads in index order (paper
        // Section 3); each encodes in its worker's arena and its payload
        // is copied once, to the container offset the look-back resolves.
        ArenaLease lease =
            AcquireScratch(options.arenas, static_cast<size_t>(threads));
        std::span<ScratchArena> arenas = lease.Span();
        const simd::Isa isa = ResolveIsa(options);
        for (ScratchArena& arena : arenas) arena.SetKernelIsa(isa);
        EncodePlan plan(chunk_src, adaptive, arenas);
        scope.HintChunks(plan.ChunkCount());
        scope.Attach(arenas);
        const auto n_chunks = static_cast<std::int64_t>(plan.ChunkCount());
        uint64_t checksum = 0;
#ifdef _OPENMP
#pragma omp parallel num_threads(threads)
#endif
        {
            // The serial content checksum overlaps the chunk loop: the
            // first thread to arrive hashes the input while the others
            // encode, then joins them.
#ifdef _OPENMP
#pragma omp single nowait
#endif
            checksum = Checksum64(input);
#ifdef _OPENMP
#pragma omp for schedule(dynamic) nowait
#endif
            for (std::int64_t c = 0; c < n_chunks; ++c) {
                plan.EncodeChunkAt(static_cast<size_t>(c),
                                   static_cast<size_t>(WorkerId()), spec,
                                   &EncodeChunk);
            }
        }
        Bytes out = plan.Finish(algorithm, input.size(), checksum);
        // Counters merge once, at the barrier — never on the chunk path.
        scope.Finish(arenas);
        return out;
    }

    Bytes
    Decompress(ByteSpan compressed, const Options& options) const override
    {
        return RunDecompress(compressed, DecodeChunks(options),
                             PreDecode(options));
    }

    void
    DecompressInto(ByteSpan compressed, std::span<std::byte> out,
                   const Options& options) const override
    {
        RunDecompressInto(compressed, out, DecodeChunks(options),
                          PreDecode(options));
    }

    void
    DecodeChunks(const ContainerView& view, const PipelineSpec& spec,
                 std::byte* dest, const Options& options) const override
    {
        DecodeChunks(options)(view, spec, dest);
    }

 private:
    /** Chunk decode hook: dynamic OpenMP loop, one arena per worker, the
     *  last pipeline stage writing straight into the chunk's slot. */
    static DecodeChunksFn
    DecodeChunks(const Options& options)
    {
        return [options](const ContainerView& view, const PipelineSpec& spec,
                         std::byte* dest) {
            const int threads = EffectiveThreads(options);
            ArenaLease lease = AcquireScratch(options.arenas,
                                              static_cast<size_t>(threads));
            std::span<ScratchArena> arenas = lease.Span();
            const simd::Isa isa = ResolveIsa(options);
            for (ScratchArena& arena : arenas) arena.SetKernelIsa(isa);
            TelemetryRunScope scope(SinkOf(options), TraceOf(options),
                                    static_cast<size_t>(threads));
            scope.HintChunks(view.header.chunk_count);
            scope.Attach(arenas);
            FirstError error;
            const auto n_chunks =
                static_cast<std::int64_t>(view.header.chunk_count);
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) num_threads(threads)
#endif
            for (std::int64_t c = 0; c < n_chunks; ++c) {
                if (error.Raised()) continue;
                try {
                    DecodeChunkAt(view, spec, static_cast<size_t>(c), dest,
                                  arenas[static_cast<size_t>(WorkerId())],
                                  &DecodeChunk);
                } catch (...) {
                    error.Capture();
                }
            }
            scope.Finish(arenas);
            error.Rethrow();
        };
    }

    static PreDecodeFn
    PreDecode(const Options& options)
    {
        return [options](const PipelineSpec& spec, ByteSpan transformed,
                         std::span<std::byte> out) {
            ScratchArena pre_scratch;
            pre_scratch.SetKernelIsa(ResolveIsa(options));
            pre_scratch.SetStageThreads(EffectiveThreads(options));
            DecodePreStage(spec, transformed, out, pre_scratch,
                           SinkOf(options), TraceOf(options));
        };
    }
};

/**
 * One simulated-GPU backend per device profile: whole-buffer compression
 * through the grid launch in gpusim/launch.cc (persistent thread blocks,
 * decoupled look-back write positions). A fresh Device is constructed per
 * call so concurrent calls do not share scheduling state.
 */
class DeviceExecutor final : public Executor {
 public:
    DeviceExecutor(std::string name, const gpusim::DeviceProfile& profile)
        : name_(std::move(name)), profile_(profile) {}

    const std::string& Name() const override { return name_; }

    ExecutorCaps
    Capabilities() const override
    {
        return {.chunk_parallel = false, .device_kernels = true,
                .profile = profile_.name};
    }

    Bytes
    Compress(Algorithm algorithm, ByteSpan input,
             const Options& options) const override
    {
        // Grid scheduling comes from the device profile; only the
        // telemetry/trace sinks are taken from the options.
        gpusim::Device device(profile_);
        return gpusim::CompressOnDevice(device, algorithm, input,
                                        SinkOf(options), TraceOf(options),
                                        options.adaptive);
    }

    Bytes
    Decompress(ByteSpan compressed, const Options& options) const override
    {
        gpusim::Device device(profile_);
        return gpusim::DecompressOnDevice(device, compressed,
                                          SinkOf(options), TraceOf(options));
    }

    void
    DecompressInto(ByteSpan compressed, std::span<std::byte> out,
                   const Options& options) const override
    {
        gpusim::Device device(profile_);
        gpusim::DecompressIntoOnDevice(device, compressed, out,
                                       SinkOf(options), TraceOf(options));
    }

    void
    DecodeChunks(const ContainerView& view, const PipelineSpec& spec,
                 std::byte* dest, const Options& options) const override
    {
        gpusim::Device device(profile_);
        gpusim::DecodeChunksOnDevice(device, view, spec, dest,
                                     SinkOf(options), TraceOf(options));
    }

 private:
    std::string name_;
    const gpusim::DeviceProfile& profile_;
};

std::string
Lowered(const std::string& name)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name) {
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    }
    return lower;
}

std::vector<std::unique_ptr<Executor>>&
Registry()
{
    static std::vector<std::unique_ptr<Executor>> executors = [] {
        std::vector<std::unique_ptr<Executor>> v;
        v.push_back(std::make_unique<CpuExecutor>());
        v.push_back(std::make_unique<DeviceExecutor>(
            "gpusim:4090", gpusim::Rtx4090Profile()));
        v.push_back(std::make_unique<DeviceExecutor>(
            "gpusim:a100", gpusim::A100Profile()));
        return v;
    }();
    return executors;
}

}  // namespace

const Executor*
FindExecutor(const std::string& name)
{
    const std::string lower = Lowered(name);
    for (const auto& executor : Registry()) {
        if (Lowered(executor->Name()) == lower) return executor.get();
    }
    return nullptr;
}

const Executor&
GetExecutor(const std::string& name)
{
    if (const Executor* executor = FindExecutor(name)) return *executor;
    std::string known;
    for (const std::string& n : ExecutorNames()) {
        if (!known.empty()) known += ", ";
        known += n;
    }
    throw UsageError("unknown executor \"" + name +
                     "\" (registered: " + known + ")");
}

const Executor&
DefaultExecutor()
{
    return *Registry().front();
}

const Executor&
ResolveExecutor(const Options& options)
{
    if (options.executor != nullptr) return *options.executor;
    return DefaultExecutor();
}

std::vector<std::string>
ExecutorNames()
{
    std::vector<std::string> names;
    for (const auto& executor : Registry()) {
        names.push_back(executor->Name());
    }
    return names;
}

void
RegisterExecutor(std::unique_ptr<Executor> executor)
{
    FPC_CHECK(executor != nullptr, "null executor registration");
    if (FindExecutor(executor->Name()) != nullptr) {
        throw UsageError("executor \"" + executor->Name() +
                         "\" is already registered");
    }
    Registry().push_back(std::move(executor));
}

}  // namespace fpc
