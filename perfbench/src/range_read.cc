/**
 * @file
 * Workload `range-read`: set-up writes one seeded multi-frame indexed v2
 * stream per pipeline (and one mode=auto SP stream) to files with
 * StreamCompressor::FinishWithIndex. One thread then reads them through
 * the pread ByteSource with Codec::decompress_range at uniform seeded
 * offsets, with lengths of 1, 1 Ki and 64 Ki values and default Options,
 * one read at a time (a closed loop with one caller). Ranged reads skip
 * the whole-input checksum; the page cache serves the files. Once a
 * second the reader pauses while a one-thread writer compresses the head
 * of each stream again, which gives this workload's compress_gbps.
 */
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>

#include "bench.h"
#include "core/codec.h"
#include "core/stream.h"
#include "core/telemetry.h"
#include "core/trace.h"
#include "layers.h"
#include "util/byte_source.h"
#include "util/hash.h"

namespace fpcbench {
namespace {

constexpr uint64_t kLengths[] = {1, 1024, 65536};
constexpr size_t kFrameBytes = size_t{1} << 20;
constexpr size_t kStreams = 5;  ///< one per kModes entry
constexpr uint64_t kWindowNs = 1'000'000'000;  ///< latency window
/** Once a second the read loop pauses while the first kRebuildFrames
 *  frames of every stream are compressed again in memory: the
 *  StreamCompressor rate is sampled over the whole run, on an input small
 *  enough to stay cache-resident, not taken once in set-up. */
constexpr uint64_t kRebuildEveryNs = 1'000'000'000;
constexpr size_t kRebuildFrames = 4;

struct Stream {
    fpc::Algorithm algorithm;
    bool adaptive;
    bool sp;
    std::string path;
    uint64_t values = 0;
    uint64_t file_bytes = 0;
    std::unique_ptr<fpc::FdByteSource> source;
    fpc::Telemetry sink;  ///< traced reads of this stream
};

class RangeRead {
 public:
    RangeRead(const Args& args, Report& report)
        : args_(args), report_(report), spans_(args.trace)
    {
        const fpc::Algorithm algs[kStreams] = {
            fpc::Algorithm::kSPspeed, fpc::Algorithm::kSPratio,
            fpc::Algorithm::kDPspeed, fpc::Algorithm::kDPratio,
            fpc::Algorithm::kSPspeed};
        for (size_t i = 0; i < kStreams; ++i) {
            streams_[i].algorithm = algs[i];
            streams_[i].adaptive = i == 4;
            streams_[i].sp = i != 2 && i != 3;
            streams_[i].path =
                args.out_dir + "/range-" + kModes[i] + ".fpcs";
        }
    }

    void
    Run()
    {
        std::vector<double> setup_s;
        for (int rep = 0; rep < 3; ++rep) {
            const uint64_t t0 = NowNs();
            Setup();
            setup_s.push_back((NowNs() - t0) / 1e9);
        }
        double raw = 0.0;
        double stored = 0.0;
        std::string bytes = "{";
        for (size_t i = 0; i < kStreams; ++i) {
            const double stream_raw = double(Raw(streams_[i]).size());
            raw += stream_raw;
            stored += double(streams_[i].file_bytes);
            bytes += std::string(i ? ", " : "") + "\"" + kModes[i] +
                     "\": " + std::to_string(streams_[i].file_bytes);
        }
        report_.Detail("bytes", bytes + ", \"sp_field\": " +
                                    std::to_string(sp_.size() * 4) +
                                    ", \"dp_field\": " +
                                    std::to_string(dp_.size() * 8) + "}");

        Measure();

        if (!args_.trace) {
            report_.Set("setup_s", Median(setup_s));
            report_.Set("ratio", raw / stored);
        }
    }

 private:
    fpc::ByteSpan
    Raw(const Stream& s) const
    {
        return s.sp ? fpc::AsBytes(sp_) : fpc::AsBytes(dp_);
    }

    /** Compress the first @p frames frames of stream @p s into memory;
     *  all of them also get the seek index. The writer compresses on one
     *  thread: the stream bytes do not depend on the thread count, and
     *  1 MiB frames split over all cores give parallel regions of about a
     *  millisecond, whose rate on a shared VM follows the host's
     *  scheduling more than the codec. */
    fpc::Bytes
    Build(const Stream& s, size_t frames) const
    {
        fpc::Options options;
        options.threads = 1;
        options.adaptive = s.adaptive;
        fpc::StreamCompressor writer(s.algorithm, options);
        const fpc::ByteSpan raw = Raw(s);
        for (size_t off = 0; off < raw.size() && frames > 0;
             off += kFrameBytes, --frames) {
            writer.PutFrame(
                raw.subspan(off, std::min(kFrameBytes, raw.size() - off)));
        }
        if (writer.BytesIn() < raw.size()) return writer.Stream();
        return writer.FinishWithIndex();
    }

    /** Compress the head of every stream again, timing each build and
     *  verifying it against the file the reads use (compression is
     *  deterministic, so the frames must match the file's prefix). */
    void
    RebuildAll()
    {
        for (size_t i = 0; i < kStreams; ++i) {
            const int32_t span = spans_.Begin("stream.StreamCompressor", 0);
            const uint64_t t0 = NowNs();
            const fpc::Bytes head = Build(streams_[i], kRebuildFrames);
            build_ns_[i].push_back(double(NowNs() - t0));
            spans_.End(span);
            const fpc::Bytes& file = written_[i];
            if (head.size() <= file.size() &&
                std::equal(head.begin(), head.end(), file.begin())) {
                report_.Ok();
            } else {
                report_.Fail(std::string("range-read rebuild of ") +
                             kModes[i] + " differs from the stream read");
            }
        }
    }

    /** Generate the fields, compress each stream, write the files, and
     *  open them through pread. */
    void
    Setup()
    {
        const size_t bytes = args_.small ? size_t{4} << 20 : size_t{32} << 20;
        sp_ = SpField(bytes / 4, args_.seed * 2 + 101);
        dp_ = DpField(bytes / 8, args_.seed * 2 + 102);
        for (size_t i = 0; i < kStreams; ++i) {
            Stream& s = streams_[i];
            s.source.reset();
            const fpc::ByteSpan raw = Raw(s);
            written_[i] = Build(s, SIZE_MAX);
            const fpc::Bytes& stream = written_[i];
            std::ofstream out(s.path, std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char*>(stream.data()),
                      static_cast<std::streamsize>(stream.size()));
            out.close();
            if (!out) throw std::runtime_error("cannot write " + s.path);
            s.values = raw.size() / (s.sp ? 4 : 8);
            s.file_bytes = stream.size();
            s.source = std::make_unique<fpc::FdByteSource>(s.path);
        }
        // Warm the read path of every stream once.
        for (Stream& s : streams_) {
            const fpc::Bytes got =
                fpc::Codec(s.algorithm).decompress_range(*s.source, 0, 1024);
            const size_t word = s.sp ? 4 : 8;
            if (std::memcmp(got.data(), Raw(s).data(), 1024 * word) != 0) {
                throw std::runtime_error("range-read warm-up mismatch");
            }
        }
    }

    void
    Measure()
    {
        fpc::Rng rng(fpc::Mix64(args_.seed * 104729 + 3));
        std::vector<std::pair<uint64_t, double>> lat_us;  // (start, us)
        std::vector<double> traced_us;
        // Untraced read latency per stream and length class.
        std::vector<double> class_us[kStreams][std::size(kLengths)];
        uint64_t reads0 = 0;
        uint64_t kib0 = 0;
        for (const Stream& s : streams_) {
            reads0 += s.source->Stats().reads;
            kib0 += s.source->Stats().bytes;
        }
        const Usage u0 = ReadUsage();
        double returned = 0.0;
        double codec_wall = 0.0;
        double covered = 0.0;
        double chunk_ns = 0.0;
        double loop_ns = 0.0;
        size_t workers = 0;
        uint64_t dropped = 0;
        uint64_t ops = 0;
        const uint64_t start = NowNs();
        const uint64_t horizon = static_cast<uint64_t>(args_.seconds * 1e9);
        uint64_t next_rebuild = start;
        while (NowNs() - start < horizon) {
            if (NowNs() >= next_rebuild) {
                RebuildAll();
                next_rebuild = NowNs() + kRebuildEveryNs;
            }
            const size_t i = rng.NextBelow(kStreams);
            Stream& s = streams_[i];
            const size_t length = rng.NextBelow(std::size(kLengths));
            const uint64_t count = kLengths[length];
            const uint64_t first = rng.NextBelow(s.values - count + 1);
            const uint64_t op = ++ops;
            // Traced runs alternate traced and untraced reads, so the
            // tracing cost is measured on the same mix.
            const bool traced = args_.trace && op % 2 == 0;
            fpc::TraceSink trace;
            fpc::Options options;
            if (traced) options.with_telemetry(&s.sink).with_trace(&trace);
            const fpc::Codec codec(s.algorithm, options);
            fpc::Bytes got;
            const int32_t span = spans_.Begin("codec.decompress_range", op);
            const uint64_t t0 = NowNs();
            try {
                got = codec.decompress_range(*s.source, first, count);
            } catch (const std::exception& e) {
                spans_.End(span);
                report_.Fail(std::string("range-read ") + kModes[i] + ": " +
                             e.what());
                continue;
            }
            const uint64_t t1 = NowNs();
            spans_.End(span);
            const double us = (t1 - t0) / 1e3;
            returned += double(got.size());
            if (!traced) {
                lat_us.emplace_back(t0, us);
                class_us[i][length].push_back(us);
            } else {
                traced_us.push_back(us);
                const CallSpans cs = AnalyseCall(trace.Spans(), t0, t1);
                codec_wall += cs.wall_ns;
                covered += cs.covered_ns;
                chunk_ns += cs.chunk_ns;
                loop_ns += cs.loop_wall_ns * double(cs.workers);
                workers = std::max(workers, cs.workers);
                dropped += trace.DroppedCount();
                if (!wrote_trace_ && cs.workers > 0) {
                    const std::string path =
                        args_.out_dir + "/range-read.lib-trace.json";
                    if (trace.WriteJson(path)) {
                        report_.Detail("library_trace_file",
                                       "\"" + path + "\"");
                    }
                    wrote_trace_ = true;
                }
            }
            if (args_.inject_fault && op == 1) CorruptOneByte(got);
            const int32_t vs = spans_.Begin("verify", op);
            const size_t word = s.sp ? 4 : 8;
            const bool ok =
                got.size() == count * word &&
                std::memcmp(got.data(), Raw(s).data() + first * word,
                            got.size()) == 0;
            spans_.End(vs);
            if (ok) {
                report_.Ok();
            } else {
                report_.Fail(std::string("range-read ") + kModes[i] +
                             ": values differ from the input slice at " +
                             std::to_string(first));
            }
        }
        const Usage u1 = ReadUsage();
        uint64_t reads1 = 0;
        uint64_t kib1 = 0;
        for (const Stream& s : streams_) {
            reads1 += s.source->Stats().reads;
            kib1 += s.source->Stats().bytes;
        }

        if (!args_.trace) {
            const LatencySummary ls =
                SummarizeWindows(Windows(lat_us, kWindowNs));
            report_.Set("op_p50_us", ls.p50);
            report_.Set("op_p99_us", ls.p99);
            report_.Detail("op_latency", SummaryJson(ls));
            // Reads per second of read time, per window, median.
            std::vector<double> rates;
            for (const auto& w : Windows(lat_us, kWindowNs)) {
                double total_us = 0.0;
                for (double us : w) total_us += us;
                if (!w.empty()) rates.push_back(double(w.size()) / (total_us / 1e6));
            }
            report_.Set("max_rate_rps", Median(rates));
            std::string builds = "{";
            for (size_t i = 0; i < kStreams; ++i) {
                const double head = double(std::min(
                    Raw(streams_[i]).size(), kRebuildFrames * kFrameBytes));
                report_.Set(std::string("compress_gbps.") + kModes[i],
                            head / Median(build_ns_[i]));
                builds += std::string(i ? "], \"" : "\"") + kModes[i] + "\": [";
                for (size_t k = 0; k < build_ns_[i].size(); ++k) {
                    builds += (k ? ", " : "") + std::to_string(build_ns_[i][k] / 1e6);
                }
            }
            report_.Detail("stream_build_ms", builds + "]}");
            // Returned bytes over median latency per length class,
            // weighted by how often each length ran.
            for (size_t i = 0; i < 4; ++i) {
                const double word = streams_[i].sp ? 4.0 : 8.0;
                double bytes = 0.0;
                double us = 0.0;
                for (size_t l = 0; l < std::size(kLengths); ++l) {
                    const double n = double(class_us[i][l].size());
                    bytes += n * double(kLengths[l]) * word;
                    us += n * Median(class_us[i][l]);
                }
                report_.Set(std::string("decompress_gbps.") + kModes[i],
                            bytes / (us * 1e3));
            }
            return;
        }

        const double n = double(ops);
        report_.Set("byte_source.reads_per_op", double(reads1 - reads0) / n);
        report_.Set("byte_source.kib_per_op",
                    double(kib1 - kib0) / 1024.0 / n);
        report_.Set("codec.self_share.decompress", 1.0 - covered / codec_wall);
        report_.Set("executor.threads", double(workers));
        report_.Set("executor.busy_share", loop_ns > 0 ? chunk_ns / loop_ns : 0);
        report_.Set("codec.minflt_per_mib",
                    double(u1.minflt - u0.minflt) / (returned / (1 << 20)));
        report_.Set("codec.sys_share",
                    (u1.sys_s - u0.sys_s) /
                        (u1.user_s - u0.user_s + u1.sys_s - u0.sys_s));
        std::vector<double> untraced_us;
        for (const auto& [t, us] : lat_us) untraced_us.push_back(us);
        report_.Set("trace.overhead_share",
                    Median(traced_us) / Median(untraced_us) - 1.0);
        report_.Set("trace.dropped_spans", double(dropped));

        // Ranged-read and executor counters of the traced reads.
        fpc::TelemetrySnapshot merged;
        double decoded_values = 0.0;
        double elements = 0.0;
        double calls = 0.0;
        double chunks = 0.0;
        double traced_bytes = 0.0;
        for (const Stream& s : streams_) {
            const fpc::TelemetrySnapshot snap = s.sink.Snapshot();
            merged.counters.Merge(snap.counters);
            const double per_chunk = double(fpc::kChunkSize) / (s.sp ? 4 : 8);
            decoded_values += double(snap.ranged.chunks_decoded) * per_chunk;
            elements += double(snap.ranged.elements);
            calls += double(snap.ranged.calls);
            chunks += double(snap.ranged.chunks_decoded);
            traced_bytes += double(snap.ranged.elements) * (s.sp ? 4 : 8);
        }
        report_.Set("stream.chunks_per_op", calls > 0 ? chunks / calls : 0.0);
        report_.Set("stream.decode_amplification",
                    elements > 0 ? decoded_values / elements : 0.0);
        SetExecutorAndTransformLayers(merged, traced_bytes, report_);

        // Layout resolution over the same pread sources, timed alone.
        std::vector<double> resolve_us;
        for (int rep = 0; rep < 20; ++rep) {
            for (const Stream& s : streams_) {
                const int32_t span = spans_.Begin("stream.ResolveStreamLayout", 0);
                const uint64_t t0 = NowNs();
                const fpc::StreamLayout layout = fpc::ResolveStreamLayout(*s.source);
                resolve_us.push_back((NowNs() - t0) / 1e3);
                spans_.End(span);
                if (layout.TotalElements() != s.values) {
                    throw std::runtime_error("resolved layout size mismatch");
                }
            }
        }
        report_.Set("stream.resolve_us", Median(resolve_us));

        const std::string spans_path = args_.out_dir + "/range-read.spans.json";
        if (WriteSpans(spans_path, {&spans_})) {
            report_.Detail("trace_file", "\"" + spans_path + "\"");
        }
    }

    const Args& args_;
    Report& report_;
    SpanRecorder spans_;
    Stream streams_[kStreams];
    fpc::Bytes written_[kStreams];  ///< each stream file's bytes
    std::vector<double> build_ns_[kStreams];
    std::vector<float> sp_;
    std::vector<double> dp_;
    bool wrote_trace_ = false;
};

}  // namespace

void
RunRangeRead(const Args& args, Report& report)
{
    RangeRead(args, report).Run();
}

}  // namespace fpcbench
