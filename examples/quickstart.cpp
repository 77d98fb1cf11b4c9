/**
 * @file
 * Quickstart: compress and decompress a float array with the typed
 * fpc::Codec facade, in both modes, inspect the result, and read the
 * built-in per-stage telemetry.
 *
 *   $ ./quickstart
 */
#include <cstdio>
#include <vector>

#include "core/codec.h"
#include "core/telemetry.h"

int
main()
{
    // Some smooth scientific-looking data: a decaying oscillation.
    std::vector<float> field(1 << 20);
    for (size_t i = 0; i < field.size(); ++i) {
        float x = static_cast<float>(i) / 4096.0f;
        field[i] = std::exp(-x / 64.0f) * std::sin(x);
    }

    // kSpeed selects SPspeed (throughput-first); kRatio selects SPratio.
    // (For<double> would pick the DP algorithms the same way.)
    for (fpc::Mode mode : {fpc::Mode::kSpeed, fpc::Mode::kRatio}) {
        fpc::Codec codec = fpc::Codec::For<float>(mode);
        fpc::Telemetry& stats = codec.enable_telemetry();

        fpc::Bytes compressed = codec.compress(std::span<const float>(field));
        fpc::CompressedInfo info = fpc::Codec::inspect(compressed);

        std::printf("%s: %zu bytes -> %zu bytes (ratio %.2f, %u chunks, "
                    "%u stored raw)\n", info.algorithm_name.c_str(),
                    field.size() * sizeof(float), compressed.size(),
                    info.ratio, info.chunk_count, info.raw_chunks);

        // Decompression recovers the input bit-for-bit.
        std::vector<float> restored = codec.decompress_as<float>(compressed);
        if (std::memcmp(restored.data(), field.data(),
                        field.size() * sizeof(float)) != 0) {
            std::fprintf(stderr, "round-trip mismatch!\n");
            return 1;
        }

        // Per-stage metrics for the round trip, one JSON line
        // (schema fpc::kTelemetrySchema — see DESIGN.md "Observability").
        std::printf("%s\n", stats.ToJson().c_str());
    }
    std::printf("round-trips verified bit-for-bit\n");
    return 0;
}
