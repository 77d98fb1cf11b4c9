/**
 * @file
 * Workload `checkpoint`: compress, then fully decompress, one SP and one
 * DP field sized like an SDRBench file with every fixed pipeline, then
 * compress both with mode=auto, all with default Options (all cores),
 * one call at a time (a closed loop with one caller). Every output is
 * larger than glibc's mmap threshold, so every call pays first touch the
 * way a fresh `fpczip` process does.
 */
#include <cstring>
#include <stdexcept>

#include "bench.h"
#include "core/codec.h"
#include "core/telemetry.h"
#include "core/trace.h"
#include "layers.h"
#include "util/hash.h"

namespace fpcbench {
namespace {

struct Inputs {
    std::vector<float> sp;
    std::vector<double> dp;
};

/** One 64 MiB field per width (4 MiB at --small). */
Inputs
MakeInputs(uint64_t seed, bool small)
{
    const size_t bytes = small ? size_t{4} << 20 : size_t{64} << 20;
    return {SpField(bytes / 4, seed * 2 + 1), DpField(bytes / 8, seed * 2 + 2)};
}

struct Call {
    const char* mode;  ///< metric suffix
    fpc::Algorithm algorithm;
    bool adaptive;
    bool sp;
};

constexpr Call kCalls[] = {
    {"SPspeed", fpc::Algorithm::kSPspeed, false, true},
    {"SPratio", fpc::Algorithm::kSPratio, false, true},
    {"DPspeed", fpc::Algorithm::kDPspeed, false, false},
    {"DPratio", fpc::Algorithm::kDPratio, false, false},
    {"auto", fpc::Algorithm::kSPspeed, true, true},
    {"auto", fpc::Algorithm::kDPspeed, true, false},
};
constexpr size_t kFixed = 4;  // kCalls[0..3]: decompress is timed too

/** Per-layer accumulators of the traced passes. */
struct Traced {
    fpc::Telemetry fixed_sink;
    fpc::Telemetry auto_sink;
    double bytes = 0.0;  ///< uncompressed bytes through traced calls
    double codec_wall[2] = {0, 0};     ///< by direction
    double codec_covered[2] = {0, 0};  ///< worker-covered part
    double chunk_ns = 0.0;
    double worker_loop_ns = 0.0;  ///< sum of workers x loop wall
    size_t max_workers = 0;
    double checksum_ns = 0.0;
    double call_ns = 0.0;
    uint64_t minflt = 0;
    double user_s = 0.0;
    double sys_s = 0.0;
    uint64_t dropped = 0;
    bool wrote_trace = false;
};

/** Per-pass results of the untimed-verification loop. */
struct Pass {
    double compress_ns[5] = {0, 0, 0, 0, 0};  ///< by mode index
    double compress_bytes[5] = {0, 0, 0, 0, 0};
    double decompress_ns[4] = {0, 0, 0, 0};
    double decompress_bytes[4] = {0, 0, 0, 0};
    double stored = 0.0;
    double raw = 0.0;
    std::vector<double> op_us;
    double wall_ns = 0.0;
};

size_t
ModeIndex(const char* mode)
{
    for (size_t i = 0; i < 5; ++i) {
        if (std::strcmp(kModes[i], mode) == 0) return i;
    }
    throw std::logic_error("unknown mode");
}

class Checkpoint {
 public:
    Checkpoint(const Args& args, Report& report)
        : args_(args), report_(report), spans_(args.trace) {}

    void
    Run()
    {
        // Set-up, several times: generate the fields and warm the
        // executor's thread pool and code paths on a slice of each.
        std::vector<double> setup_s;
        for (int rep = 0; rep < 3; ++rep) {
            inputs_ = {};
            const uint64_t t0 = NowNs();
            inputs_ = MakeInputs(args_.seed, args_.small);
            Warm();
            setup_s.push_back((NowNs() - t0) / 1e9);
        }
        report_.Detail("bytes", "{\"sp_field\": " +
                                    std::to_string(inputs_.sp.size() * 4) +
                                    ", \"dp_field\": " +
                                    std::to_string(inputs_.dp.size() * 8) +
                                    "}");

        std::vector<Pass> untraced;
        std::vector<Pass> traced;
        const uint64_t start = NowNs();
        const double budget_ns = args_.seconds * 1e9;
        for (int n = 0;; ++n) {
            const bool trace_this = args_.trace && n % 2 == 1;
            (trace_this ? traced : untraced).push_back(DoPass(trace_this, 0));
            const bool enough = NowNs() - start >= budget_ns;
            if (enough && !untraced.empty() &&
                (!args_.trace || !traced.empty())) {
                break;
            }
        }

        if (!args_.trace) {
            SetEndToEnd(untraced, setup_s);
        } else {
            SetPerLayer(untraced, traced);
        }
    }

 private:
    fpc::ByteSpan
    Input(const Call& call) const
    {
        return call.sp ? fpc::AsBytes(inputs_.sp) : fpc::AsBytes(inputs_.dp);
    }

    void
    Warm()
    {
        for (const Call& call : kCalls) {
            const fpc::ByteSpan in = Input(call);
            const fpc::ByteSpan slice = in.first(std::min<size_t>(
                in.size(), size_t{4} << 20));
            fpc::Options options;
            options.adaptive = call.adaptive;
            const fpc::Bytes packed =
                fpc::Compress(call.algorithm, slice, options);
            const fpc::Bytes out = fpc::Decompress(packed, options);
            if (out.size() != slice.size() ||
                std::memcmp(out.data(), slice.data(), out.size()) != 0) {
                throw std::runtime_error("warm-up round trip mismatch");
            }
        }
    }

    /** One pass over every call; @p threads 0 = default Options. */
    Pass
    DoPass(bool traced, int threads)
    {
        Pass pass;
        const uint64_t pass_t0 = NowNs();
        const int32_t pass_span = spans_.Begin("checkpoint.pass", 0);
        for (const Call& call : kCalls) {
            const size_t mode = ModeIndex(call.mode);
            const bool fixed = mode < kFixed;
            const fpc::ByteSpan in = Input(call);
            const uint64_t op = ++next_op_;
            fpc::Options options;
            options.threads = threads;
            options.adaptive = call.adaptive;
            fpc::TraceSink trace_sink;
            if (traced) {
                options.with_telemetry(fixed ? &traced_.fixed_sink
                                             : &traced_.auto_sink)
                    .with_trace(&trace_sink);
            }
            try {
                const Usage u0 = ReadUsage();
                const int32_t cs = spans_.Begin("codec.compress", op,
                                                pass_span);
                const uint64_t c0 = NowNs();
                const fpc::Bytes packed =
                    fpc::Compress(call.algorithm, in, options);
                const uint64_t c1 = NowNs();
                spans_.End(cs);
                const Usage u1 = ReadUsage();
                pass.compress_ns[mode] += double(c1 - c0);
                pass.compress_bytes[mode] += double(in.size());
                pass.op_us.push_back((c1 - c0) / 1e3);
                pass.raw += double(in.size());
                pass.stored += double(packed.size());

                // mode=auto decompress only verifies; it is not measured.
                fpc::Options dopt = options;
                if (!fixed) {
                    dopt.telemetry = nullptr;
                    dopt.trace = nullptr;
                }
                const int32_t ds = spans_.Begin("codec.decompress", op,
                                                pass_span);
                const uint64_t d0 = NowNs();
                fpc::Bytes out = fpc::Decompress(packed, dopt);
                const uint64_t d1 = NowNs();
                spans_.End(ds);
                const Usage u2 = ReadUsage();
                if (fixed) {
                    pass.decompress_ns[mode] += double(d1 - d0);
                    pass.decompress_bytes[mode] += double(out.size());
                    pass.op_us.push_back((d1 - d0) / 1e3);
                }

                if (traced) {
                    AccountTraced(in, out, trace_sink, fixed, c0, c1, d0, d1,
                                  u0, u1, u2, op, pass_span);
                }
                if (args_.inject_fault && !injected_) {
                    CorruptOneByte(out);
                    injected_ = true;
                }
                const int32_t vs = spans_.Begin("verify", op, pass_span);
                const bool ok = out.size() == in.size() &&
                                std::memcmp(out.data(), in.data(),
                                            in.size()) == 0;
                spans_.End(vs);
                // A round trip is two ops, its compress and its
                // decompress; a mismatch fails both.
                for (const char* verb : {"compress", "decompress"}) {
                    if (ok) {
                        report_.Ok();
                    } else {
                        report_.Fail(std::string("checkpoint ") + call.mode +
                                     " " + verb +
                                     ": round trip differs from the input");
                    }
                }
            } catch (const std::exception& e) {
                report_.Fail(std::string("checkpoint ") + call.mode + ": " +
                             e.what());
            }
        }
        spans_.End(pass_span);
        pass.wall_ns = double(NowNs() - pass_t0);
        return pass;
    }

    void
    AccountTraced(fpc::ByteSpan in, const fpc::Bytes& out,
                  const fpc::TraceSink& trace_sink, bool fixed, uint64_t c0,
                  uint64_t c1, uint64_t d0, uint64_t d1, const Usage& u0,
                  const Usage& u1, const Usage& u2, uint64_t op,
                  int32_t pass_span)
    {
        Traced& t = traced_;
        const std::vector<fpc::TraceSpan> lib = trace_sink.Spans();
        t.dropped += trace_sink.DroppedCount();
        const auto add = [&](size_t dir, uint64_t t0, uint64_t t1,
                             const Usage& before, const Usage& after,
                             size_t bytes) {
            const CallSpans cs = AnalyseCall(lib, t0, t1);
            t.codec_wall[dir] += cs.wall_ns;
            t.codec_covered[dir] += cs.covered_ns;
            t.chunk_ns += cs.chunk_ns;
            t.worker_loop_ns += cs.loop_wall_ns * double(cs.workers);
            t.max_workers = std::max(t.max_workers, cs.workers);
            t.bytes += double(bytes);
            t.call_ns += double(t1 - t0);
            t.minflt += after.minflt - before.minflt;
            t.user_s += after.user_s - before.user_s;
            t.sys_s += after.sys_s - before.sys_s;
        };
        add(0, c0, c1, u0, u1, in.size());
        if (fixed) add(1, d0, d1, u1, u2, out.size());
        // The whole-input checksum the codec computes, timed by itself
        // on the same bytes (compress input, decompress output).
        const int32_t hs = spans_.Begin("hash.Checksum64", op, pass_span);
        const uint64_t h0 = NowNs();
        volatile uint64_t sum = fpc::Checksum64(in);
        if (fixed) sum = sum ^ fpc::Checksum64(fpc::ByteSpan(out));
        t.checksum_ns += double(NowNs() - h0);
        spans_.End(hs);
        (void)sum;
        if (!t.wrote_trace && fixed) {
            const std::string path = args_.out_dir + "/checkpoint.lib-trace.json";
            if (trace_sink.WriteJson(path)) {
                report_.Detail("library_trace_file", "\"" + path + "\"");
            }
            t.wrote_trace = true;
        }
    }

    void
    SetEndToEnd(const std::vector<Pass>& passes,
                const std::vector<double>& setup_s)
    {
        std::vector<std::vector<double>> windows;
        double ops = 0.0;
        double op_ns = 0.0;
        for (const Pass& p : passes) {
            windows.push_back(p.op_us);
            ops += double(p.op_us.size());
            for (double us : p.op_us) op_ns += us * 1e3;
        }
        for (size_t m = 0; m < 5; ++m) {
            std::vector<double> gbps;
            for (const Pass& p : passes) {
                gbps.push_back(p.compress_bytes[m] / p.compress_ns[m]);
            }
            report_.Set(std::string("compress_gbps.") + kModes[m],
                        Median(gbps));
        }
        for (size_t m = 0; m < kFixed; ++m) {
            std::vector<double> gbps;
            for (const Pass& p : passes) {
                gbps.push_back(p.decompress_bytes[m] / p.decompress_ns[m]);
            }
            report_.Set(std::string("decompress_gbps.") + kModes[m],
                        Median(gbps));
        }
        // One window per pass: every pass holds each call once.
        const LatencySummary ls = SummarizeWindows(windows);
        report_.Set("op_p50_us", ls.p50);
        report_.Set("op_p99_us", ls.p99);
        report_.Detail("op_latency", SummaryJson(ls));
        report_.Set("max_rate_rps", ops / (op_ns / 1e9));
        report_.Set("ratio", passes.front().raw / passes.front().stored);
        report_.Set("setup_s", Median(setup_s));
        report_.Detail("passes", std::to_string(passes.size()));
    }

    void
    SetPerLayer(const std::vector<Pass>& untraced,
                const std::vector<Pass>& traced)
    {
        Traced& t = traced_;
        report_.Set("codec.self_share.compress",
                    1.0 - t.codec_covered[0] / t.codec_wall[0]);
        report_.Set("codec.self_share.decompress",
                    1.0 - t.codec_covered[1] / t.codec_wall[1]);
        report_.Set("codec.minflt_per_mib",
                    double(t.minflt) / (t.bytes / (1 << 20)));
        report_.Set("codec.sys_share", t.sys_s / (t.user_s + t.sys_s));
        report_.Set("hash.checksum_share", t.checksum_ns / t.call_ns);
        report_.Set("executor.threads", double(t.max_workers));
        report_.Set("executor.busy_share", t.chunk_ns / t.worker_loop_ns);

        fpc::TelemetrySnapshot all = t.fixed_sink.Snapshot();
        const fpc::TelemetrySnapshot autos = t.auto_sink.Snapshot();
        all.counters.Merge(autos.counters);
        SetExecutorAndTransformLayers(all, t.bytes, report_);
        SetAdaptiveLayers(autos, report_);

        // Thread scaling: one extra 1-thread pass, untraced, against the
        // median all-core compress time of the untraced passes.
        const Pass single = DoPass(false, 1);
        for (size_t m = 0; m < kFixed; ++m) {
            std::vector<double> all_core;
            for (const Pass& p : untraced) all_core.push_back(p.compress_ns[m]);
            report_.Set(std::string("executor.speedup.") + kModes[m],
                        single.compress_ns[m] / Median(all_core));
        }

        std::vector<double> tw, uw;
        for (const Pass& p : traced) tw.push_back(p.wall_ns);
        for (const Pass& p : untraced) uw.push_back(p.wall_ns);
        report_.Set("trace.overhead_share", Median(tw) / Median(uw) - 1.0);
        report_.Set("trace.dropped_spans", double(t.dropped));

        const std::string telemetry_path =
            args_.out_dir + "/checkpoint.telemetry.json";
        if (FILE* f = std::fopen(telemetry_path.c_str(), "w")) {
            std::fprintf(f, "%s\n%s\n", t.fixed_sink.ToJson().c_str(),
                         t.auto_sink.ToJson().c_str());
            std::fclose(f);
            report_.Detail("telemetry_file", "\"" + telemetry_path + "\"");
        }
        const std::string spans_path = args_.out_dir + "/checkpoint.spans.json";
        if (WriteSpans(spans_path, {&spans_})) {
            report_.Detail("trace_file", "\"" + spans_path + "\"");
        }
        std::string self = "{";
        for (const auto& [name, ns] : SelfTimeByName(spans_.spans())) {
            self += (self.size() > 1 ? ", \"" : "\"") + name +
                    "\": " + std::to_string(ns / 1e6);
        }
        report_.Detail("self_ms", self + "}");
    }

    const Args& args_;
    Report& report_;
    SpanRecorder spans_;
    Inputs inputs_;
    Traced traced_;
    uint64_t next_op_ = 0;
    bool injected_ = false;
};

}  // namespace

void
RunCheckpoint(const Args& args, Report& report)
{
    Checkpoint(args, report).Run();
}

}  // namespace fpcbench
