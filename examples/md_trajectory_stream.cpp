/**
 * @file
 * Molecular-dynamics trajectory streaming (an EXAALT-like workload): a
 * producer emits double-precision coordinate frames every few timesteps;
 * the streaming API compresses each frame with DPspeed so the stream can
 * keep up with a fast interconnect, and a consumer decodes frames in
 * order. Demonstrates StreamCompressor/StreamDecompressor and frame
 * independence.
 *
 *   $ ./md_trajectory_stream
 */
#include <cstdio>
#include <vector>

#include "core/stream.h"
#include "core/telemetry.h"
#include "data/fields.h"
#include "util/hash.h"
#include "util/timer.h"

int
main()
{
    const size_t n_atoms = 100000;
    const int n_frames = 20;

    // Initial particle positions: sorted with thermal jitter.
    std::vector<double> positions =
        fpc::data::ParticleCoordinates(n_atoms, 42, 250.0, 0.2);

    fpc::StreamCompressor stream(fpc::Algorithm::kDPspeed);
    stream.stats();  // attach the telemetry sink before the first frame
    std::vector<std::vector<double>> truth;

    fpc::Rng rng(7);
    fpc::Timer timer;
    for (int frame = 0; frame < n_frames; ++frame) {
        // Integrate: small thermal displacements each step.
        for (double& x : positions) x += 0.01 * rng.NextGaussian();
        truth.push_back(positions);
        stream.PutDoubles(positions);
    }
    double encode_seconds = timer.Seconds();

    double in_gb = static_cast<double>(stream.BytesIn()) / 1e9;
    std::printf("streamed %d frames, %zu atoms each: %.1f MB -> %.1f MB "
                "(ratio %.2f) at %.2f GB/s\n",
                n_frames, n_atoms, stream.BytesIn() / 1e6,
                stream.Stream().size() / 1e6,
                static_cast<double>(stream.BytesIn()) /
                    static_cast<double>(stream.Stream().size()),
                in_gb / encode_seconds);

    // Consumer side: frames decode in order, each independently.
    fpc::StreamDecompressor reader{fpc::ByteSpan(stream.Stream())};
    int frame = 0;
    while (reader.HasNext()) {
        std::vector<double> decoded = reader.NextDoubles();
        if (decoded != truth[frame]) {
            std::fprintf(stderr, "frame %d mismatch!\n", frame);
            return 1;
        }
        ++frame;
    }
    std::printf("consumer verified all %d frames bit-for-bit\n", frame);

    // Producer-side per-stage metrics accumulated across all frames
    // (schema fpc::kTelemetrySchema — see DESIGN.md "Observability").
    std::printf("%s\n", fpc::ToJson(stream.stats()).c_str());
    return 0;
}
