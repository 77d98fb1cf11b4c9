/**
 * @file
 * Workload `service-mix`: open-loop traffic against an in-process
 * SocketServer (the object `fpcd` runs) over a unix socket, with the
 * default ServiceConfig. One tenant per connection, one sender thread
 * per connection; requests fall due on a seeded Poisson schedule at a
 * fixed offered rate and are timed from when they were due. Half the
 * requests compress (SPspeed, SPratio, DPspeed at 16 KiB, 256 KiB and
 * 1 MiB; mode=auto SP up to 256 KiB; DPratio at 16 KiB only), half
 * decompress containers built in set-up.
 *
 * The untraced run alternates one-second slots at the nominal rate with
 * slots climbing a fixed rate ladder to the highest rate whose p99 meets
 * the limit without growing lateness. The traced run measures the nominal rate twice, untraced and
 * then with the service's telemetry, trace and request log attached.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/codec.h"
#include "core/log.h"
#include "core/metrics.h"
#include "core/telemetry.h"
#include "core/trace.h"
#include "data/fields.h"
#include "layers.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "util/hash.h"

namespace fpcbench {
namespace {

// Fixed constants of the workload (also recorded in perfbench/README.md).
constexpr double kNominalRps = 400.0;
constexpr double kLadderRps[] = {400,  600,  800,  1000, 1200, 1400,
                                 1600, 1800, 2000, 2400, 2800, 3200};
constexpr double kSlotSeconds = 1.0;
constexpr double kP99LimitUs = 50000.0;
constexpr uint64_t kWindowNs = 1'000'000'000;  ///< latency window
constexpr size_t kSizes[] = {size_t{16} << 10, size_t{256} << 10,
                             size_t{1} << 20};
constexpr size_t kVariants = 4;

struct Kind {
    fpc::ServiceVerb verb;
    size_t mode;  ///< index into kModes
    size_t size;  ///< index into kSizes
};

fpc::Algorithm
ModeAlgorithm(size_t mode)
{
    switch (mode) {
        case 0: return fpc::Algorithm::kSPspeed;
        case 1: return fpc::Algorithm::kSPratio;
        case 2: return fpc::Algorithm::kDPspeed;
        case 3: return fpc::Algorithm::kDPratio;
        default: return fpc::Algorithm::kSPspeed;  // auto: SP width
    }
}

std::vector<Kind>
MakeKinds()
{
    std::vector<Kind> kinds;
    for (auto verb : {fpc::ServiceVerb::kCompress,
                      fpc::ServiceVerb::kDecompress}) {
        for (size_t mode = 0; mode < 5; ++mode) {
            // Decompress has no auto kind of its own (a v3 container
            // decodes like any other). DPratio runs at 16 KiB only and
            // mode=auto up to 256 KiB: a 1 MiB request of either costs
            // 5-10 ms on one thread (serial FCM; per-chunk trial
            // encodes) and would set every tail of the mix by itself.
            if (verb == fpc::ServiceVerb::kDecompress && mode == 4) continue;
            for (size_t s = 0; s < std::size(kSizes); ++s) {
                if ((mode == 3 && s > 0) || (mode == 4 && s > 1)) continue;
                kinds.push_back({verb, mode, s});
            }
        }
    }
    return kinds;
}

/** One prepared request and the reply it must produce. */
struct Item {
    fpc::ServiceRequest request;
    fpc::Bytes expected;
    double raw_bytes = 0.0;  ///< uncompressed bytes the request covers
};

/** One completed op, as the sender saw it. */
struct Sample {
    uint64_t id = 0;
    uint64_t due = 0;
    uint64_t send = 0;
    uint64_t reply = 0;
    size_t kind = 0;
    double raw_bytes = 0.0;
    double reply_bytes = 0.0;
    bool ok = false;
};

struct Phase {
    std::vector<Sample> samples;
    double wall_ns = 0.0;
};

/** Seeded uncompressed payload: one of four field shapes per variant. */
fpc::Bytes
MakePayload(uint64_t seed, size_t variant, size_t bytes, bool sp)
{
    const size_t n = sp ? bytes / 4 : bytes / 8;
    const uint64_t s = fpc::Mix64(seed * 131 + variant * 17 + bytes + sp);
    std::vector<double> v;
    switch (variant % 4) {
        case 0: v = fpc::data::SmoothField(n, s, 4, 1e-6); break;
        case 1: v = fpc::data::QuantizedObservations(n, s, 1e-3); break;
        case 2: v = fpc::data::Ar1Walk(n, s, 0.99, 0.01); break;
        default: v = fpc::data::Oscillatory(n, s); break;
    }
    if (sp) {
        const std::vector<float> f = fpc::data::ToFloats(v);
        const fpc::ByteSpan b = fpc::AsBytes(f);
        return fpc::Bytes(b.begin(), b.end());
    }
    const fpc::ByteSpan b = fpc::AsBytes(v);
    return fpc::Bytes(b.begin(), b.end());
}

class ServiceMix {
 public:
    ServiceMix(const Args& args, Report& report)
        : args_(args), report_(report), kinds_(MakeKinds())
    {
        const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
        connections_ = std::min<size_t>(4, hw);
        socket_path_ = args.out_dir + "/fpcbench.sock";
        log_path_ = args.out_dir + "/service-mix.log";
    }

    void
    Run()
    {
        if (args_.trace) {
            // The request log joins the benchmark's op ids (sent as
            // request_id) to per-request queue and execution times. The
            // logger reads its environment once, at first use.
            std::filesystem::remove(log_path_);
            setenv("FPC_LOG_FILE", log_path_.c_str(), 1);
            setenv("FPC_LOG_RATE", "1000000", 1);
        }
        fpc::SetLogThreshold(fpc::LogLevel::kWarn);

        std::vector<double> setup_s;
        for (int rep = 0; rep < 3; ++rep) {
            Teardown();
            catalogue_.clear();
            const uint64_t t0 = NowNs();
            Setup(/*traced=*/false);
            setup_s.push_back((NowNs() - t0) / 1e9);
        }
        report_.Detail("bytes", "{\"catalogue\": " +
                                    std::to_string(uint64_t(catalogue_bytes_)) +
                                    "}");
        const double scale = args_.small ? 0.25 : 1.0;
        if (!args_.trace) {
            report_.Set("setup_s", Median(setup_s));
            Untraced(scale);
        } else {
            const Phase plain =
                RunPhase(kNominalRps * scale, args_.seconds * 0.5, 1);
            Teardown();
            Setup(/*traced=*/true);
            TracedPhase(plain, scale);
        }
        Teardown();
    }

 private:
    void
    Setup(bool traced)
    {
        if (catalogue_.empty()) BuildCatalogue();
        fpc::ServerConfig config;
        config.socket_path = socket_path_;
        if (traced) {
            telemetry_ = std::make_unique<fpc::Telemetry>();
            trace_ = std::make_unique<fpc::TraceSink>();
            config.service.telemetry = telemetry_.get();
            config.service.trace = trace_.get();
        }
        server_ = std::make_unique<fpc::SocketServer>(config);
        for (size_t c = 0; c < connections_; ++c) {
            clients_.push_back(
                std::make_unique<fpc::SocketClient>(socket_path_));
        }
        // Warm every connection, worker and arena on every kind.
        for (size_t c = 0; c < connections_; ++c) {
            for (size_t k = 0; k < kinds_.size(); ++k) {
                Item& item = catalogue_[k][c % kVariants];
                const fpc::ServiceResponse response =
                    clients_[c]->Call(item.request);
                if (response.status != fpc::Errc::kOk ||
                    response.payload != item.expected) {
                    throw std::runtime_error("service-mix warm-up mismatch");
                }
            }
        }
    }

    void
    Teardown()
    {
        clients_.clear();
        if (server_) server_->Stop();
        server_.reset();
    }

    /** Seeded payloads and the replies they must produce (each measured
     *  set-up builds them afresh; the traced server reuses them). */
    void
    BuildCatalogue()
    {
        catalogue_.assign(kinds_.size(), std::vector<Item>(kVariants));
        double bytes = 0.0;
        for (size_t k = 0; k < kinds_.size(); ++k) {
            const Kind& kind = kinds_[k];
            const bool sp = kind.mode != 2 && kind.mode != 3;
            for (size_t v = 0; v < kVariants; ++v) {
                const size_t size = kSizes[kind.size];
                const fpc::Bytes payload =
                    MakePayload(args_.seed, v, size, sp);
                fpc::Options options;
                options.threads = 1;
                options.adaptive = kind.mode == 4;
                fpc::Bytes container =
                    fpc::Compress(ModeAlgorithm(kind.mode), payload, options);
                Item& item = catalogue_[k][v];
                item.request.verb = kind.verb;
                item.request.algorithm = ModeAlgorithm(kind.mode);
                item.request.adaptive = kind.mode == 4;
                item.raw_bytes = double(payload.size());
                if (kind.verb == fpc::ServiceVerb::kCompress) {
                    item.request.payload = payload;
                    item.expected = std::move(container);
                } else {
                    item.request.payload = std::move(container);
                    item.expected = payload;
                }
                bytes += double(item.request.payload.size() +
                                item.expected.size());
            }
        }
        catalogue_bytes_ = bytes;
    }

    /** Open-loop phase at @p rps for @p seconds; @p phase seeds the
     *  schedule so each phase of a run differs but repeats per seed. */
    Phase
    RunPhase(double rps, double seconds, uint64_t phase)
    {
        const size_t c_count = connections_;
        std::vector<std::vector<Sample>> per_thread(c_count);
        std::vector<SpanRecorder> recorders;
        for (size_t c = 0; c < c_count; ++c) {
            recorders.emplace_back(tracing_, static_cast<uint32_t>(c));
        }
        const uint64_t start = NowNs() + 5'000'000;
        const uint64_t horizon = static_cast<uint64_t>(seconds * 1e9);
        std::vector<std::thread> threads;
        for (size_t c = 0; c < c_count; ++c) {
            threads.emplace_back([&, c] {
                Sender(c, rps / double(c_count), start, horizon,
                       phase * 1000 + c, per_thread[c], recorders[c]);
            });
        }
        for (auto& t : threads) t.join();
        Phase out;
        out.wall_ns = double(horizon);
        for (auto& v : per_thread) {
            out.samples.insert(out.samples.end(), v.begin(), v.end());
        }
        std::sort(out.samples.begin(), out.samples.end(),
                  [](const Sample& a, const Sample& b) {
                      return a.due < b.due;
                  });
        for (auto& r : recorders) spans_.push_back(std::move(r));
        return out;
    }

    void
    Sender(size_t c, double rps, uint64_t start, uint64_t horizon,
           uint64_t stream, std::vector<Sample>& out, SpanRecorder& spans)
    {
        fpc::Rng rng(fpc::Mix64(args_.seed * 7919 + stream));
        // The variants this connection owns, so each item has one user.
        std::vector<size_t> variants;
        for (size_t v = c; v < kVariants; v += connections_) {
            variants.push_back(v);
        }
        const size_t n_compress = static_cast<size_t>(std::count_if(
            kinds_.begin(), kinds_.end(), [](const Kind& k) {
                return k.verb == fpc::ServiceVerb::kCompress;
            }));
        double t = 0.0;
        while (true) {
            t += -std::log(1.0 - rng.NextDouble()) / rps * 1e9;
            if (t >= double(horizon)) break;
            const bool compress = rng.NextBelow(2) == 0;
            const size_t k =
                compress ? rng.NextBelow(n_compress)
                         : n_compress + rng.NextBelow(kinds_.size() -
                                                      n_compress);
            Item& item =
                catalogue_[k][variants[rng.NextBelow(variants.size())]];
            Sample s;
            s.id = next_op_.fetch_add(1) + 1;
            s.due = start + static_cast<uint64_t>(t);
            s.kind = k;
            s.raw_bytes = item.raw_bytes;
            const uint64_t now = NowNs();
            if (now < s.due) {
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(s.due - now));
            }
            item.request.request_id = "op-" + std::to_string(s.id);
            item.request.tenant = "tenant-" + std::to_string(c);
            fpc::ServiceResponse response;
            s.send = NowNs();
            try {
                response = clients_[c]->Call(item.request);
            } catch (const std::exception& e) {
                response.status = fpc::Errc::kInternal;
                response.error = e.what();
            }
            s.reply = NowNs();
            spans.Add("loadgen.request", s.id, -1, s.due, s.reply);
            spans.Add("client.call", s.id,
                      static_cast<int32_t>(spans.spans().size()) - 1, s.send,
                      s.reply);
            if (args_.inject_fault && !injected_.exchange(true)) {
                CorruptOneByte(response.payload);
            }
            const uint64_t v0 = NowNs();
            s.ok = response.status == fpc::Errc::kOk &&
                   response.payload == item.expected;
            spans.Add("verify", s.id, -1, v0, NowNs());
            s.reply_bytes = double(response.payload.size());
            if (s.ok) {
                report_.Ok();
            } else {
                report_.Fail("service-mix op " + std::to_string(s.id) + " (" +
                             fpc::ServiceVerbName(item.request.verb) + " " +
                             kModes[kinds_[k].mode] + "): " +
                             (response.status == fpc::Errc::kOk
                                  ? std::string("reply differs")
                                  : response.error));
            }
            out.push_back(s);
        }
    }

    static std::vector<double>
    LatencyUs(const std::vector<Sample>& samples)
    {
        std::vector<double> out;
        for (const Sample& s : samples) out.push_back((s.reply - s.due) / 1e3);
        return out;
    }

    /** End-to-end metrics at the nominal rate; @p slots are the
     *  nominal slots' samples, one latency window each. */
    void
    SetNominal(const std::vector<std::vector<Sample>>& slots)
    {
        std::vector<std::vector<double>> windows;
        std::vector<Sample> all;
        for (const auto& slot : slots) {
            windows.push_back(LatencyUs(slot));
            all.insert(all.end(), slot.begin(), slot.end());
        }
        const LatencySummary ls = SummarizeWindows(windows);
        report_.Set("op_p50_us", ls.p50);
        report_.Set("op_p99_us", ls.p99);
        report_.Detail("op_latency_nominal", SummaryJson(ls));
        // How late the generator sent (send - due) and the round trip
        // alone (reply - send), next to the due-to-reply latency.
        std::vector<std::vector<double>> late;
        std::vector<std::vector<double>> rtt;
        for (const auto& slot : slots) {
            late.emplace_back();
            rtt.emplace_back();
            for (const Sample& s : slot) {
                late.back().push_back((s.send - s.due) / 1e3);
                rtt.back().push_back((s.reply - s.send) / 1e3);
            }
        }
        report_.Detail("lateness_nominal", SummaryJson(SummarizeWindows(late)));
        report_.Detail("round_trip_nominal", SummaryJson(SummarizeWindows(rtt)));
        // Per mode and direction: uncompressed bytes over median latency,
        // weighted by how often each payload size ran.
        for (size_t dir = 0; dir < 2; ++dir) {
            for (size_t mode = 0; mode < 5; ++mode) {
                if (dir == 1 && mode == 4) continue;
                double bytes = 0.0;
                double ns = 0.0;
                for (size_t k = 0; k < kinds_.size(); ++k) {
                    const Kind& kind = kinds_[k];
                    if (kind.mode != mode ||
                        (kind.verb == fpc::ServiceVerb::kCompress) != (dir == 0)) {
                        continue;
                    }
                    std::vector<double> lat;
                    for (const Sample& s : all) {
                        if (s.kind == k) lat.push_back(double(s.reply - s.due));
                    }
                    bytes += double(lat.size()) * double(kSizes[kind.size]);
                    ns += double(lat.size()) * Median(lat);
                }
                report_.Set(std::string(dir == 0 ? "compress_gbps."
                                                 : "decompress_gbps.") +
                                kModes[mode],
                            ns > 0 ? bytes / ns : 0.0);
            }
        }
        double raw = 0.0;
        double stored = 0.0;
        for (const Sample& s : all) {
            if (kinds_[s.kind].verb == fpc::ServiceVerb::kCompress && s.ok) {
                raw += s.raw_bytes;
                stored += s.reply_bytes;
            }
        }
        report_.Set("ratio", stored > 0 ? raw / stored : 0.0);
    }

    /** A rung passes when its p99 meets the limit and the generator's
     *  lateness over the last tenth of the rung stays under it too (a
     *  backlog that grows without bound fails the second test first). */
    bool
    RungPasses(const Phase& phase, double* p99_out)
    {
        const LatencySummary ls = Summarize(LatencyUs(phase.samples));
        *p99_out = ls.p99;
        const size_t n = phase.samples.size();
        std::vector<double> late;
        for (size_t i = n - n / 10; i < n; ++i) {
            late.push_back(
                (phase.samples[i].send - phase.samples[i].due) / 1e3);
        }
        for (const Sample& s : phase.samples) {
            if (!s.ok) return false;
        }
        return n > 0 && ls.p99 <= kP99LimitUs && Median(late) <= kP99LimitUs;
    }

    /**
     * The untraced run, in one-second slots. Even slots, and every slot
     * after the climb ends, run the nominal rate; odd slots climb the
     * fixed ladder. Interleaving spreads the nominal windows over the
     * whole run, so a few seconds of host noise move a minority of them,
     * and a failing rung is retried once before the climb stops.
     * max_rate_rps interpolates between the highest passing rung and the
     * rung that failed twice, at the rate where log(p99) reaches the
     * limit; the highest passing rung is in the detail line.
     */
    void
    Untraced(double scale)
    {
        const size_t slots = std::max<size_t>(
            4, static_cast<size_t>(args_.seconds / kSlotSeconds));
        std::vector<std::vector<Sample>> nominal;
        size_t rung = 0;
        bool climbing = true;
        bool retried = false;
        double pass_rps = 0.0;
        double pass_p99 = 0.0;
        double max_rate = 0.0;
        std::string rungs = "[";
        for (size_t slot = 0; slot < slots; ++slot) {
            if (!climbing || slot % 2 == 0) {
                nominal.push_back(RunPhase(kNominalRps * scale, kSlotSeconds,
                                           1000 + slot)
                                      .samples);
                continue;
            }
            const double rps = kLadderRps[rung] * scale;
            const Phase p = RunPhase(rps, kSlotSeconds, 2000 + slot);
            double p99 = 0.0;
            const bool pass = RungPasses(p, &p99);
            rungs += (rungs.size() > 1 ? ", " : "") +
                     std::string("{\"rps\": ") + std::to_string(rps) +
                     ", \"p99_us\": " + std::to_string(p99) +
                     ", \"pass\": " + (pass ? "true" : "false") + "}";
            if (pass) {
                pass_rps = rps;
                pass_p99 = p99;
                max_rate = rps;
                retried = false;
                climbing = ++rung < std::size(kLadderRps);
                continue;
            }
            if (!retried) {
                retried = true;
                continue;
            }
            climbing = false;
            if (pass_rps > 0 && p99 > kP99LimitUs && p99 > pass_p99) {
                const double f = (std::log(kP99LimitUs) - std::log(pass_p99)) /
                                 (std::log(p99) - std::log(pass_p99));
                max_rate = pass_rps + std::clamp(f, 0.0, 1.0) * (rps - pass_rps);
            }
        }
        SetNominal(nominal);
        report_.Detail("ladder", rungs + "]");
        report_.Detail("ladder_highest_passing_rps", std::to_string(pass_rps));
        report_.Set("max_rate_rps", max_rate);
    }

    void
    TracedPhase(const Phase& plain, double scale)
    {
        tracing_ = true;
        fpc::SetLogThreshold(fpc::LogLevel::kInfo);
        const std::string before = fpc::MetricsRegistry::Global().Exposition();
        const Usage u0 = ReadUsage();
        const Phase traced =
            RunPhase(kNominalRps * scale, args_.seconds * 0.5, 1);
        const Usage u1 = ReadUsage();
        const std::string after = fpc::MetricsRegistry::Global().Exposition();
        fpc::SetLogThreshold(fpc::LogLevel::kWarn);
        const fpc::Service::Counters counters = server_->service().counters();
        const int workers = server_->service().workers();
        Teardown();  // drains; every log line is written

        // Join the request log to the benchmark's ops by request id.
        std::map<uint64_t, std::pair<double, double>> service_ns;  // q, total
        std::ifstream log(log_path_);
        std::string line;
        const auto field = [&](const std::string& key) -> double {
            const std::string tag = "\"" + key + "\": ";
            const size_t at = line.find(tag);
            return at == std::string::npos
                       ? -1.0
                       : std::atof(line.c_str() + at + tag.size());
        };
        while (std::getline(log, line)) {
            const size_t at = line.find("\"request_id\": \"op-");
            if (at == std::string::npos) continue;
            const uint64_t id = std::strtoull(
                line.c_str() + at + std::strlen("\"request_id\": \"op-"),
                nullptr, 10);
            service_ns[id] = {field("queue_ns"), field("total_ns")};
        }
        std::vector<double> queue_us;
        std::vector<double> transport_us;
        double exec_ns = 0.0;
        double checksum_ns = 0.0;
        double payload_bytes = 0.0;
        for (const Sample& s : traced.samples) {
            payload_bytes += s.raw_bytes;
            auto it = service_ns.find(s.id);
            if (it == service_ns.end()) continue;
            const auto [q, total] = it->second;
            queue_us.push_back(q / 1e3);
            exec_ns += total - q;
            transport_us.push_back((double(s.reply - s.send) - total) / 1e3);
            checksum_ns += ChecksumNs(s.kind);
        }
        const LatencySummary qs = Summarize(queue_us);
        report_.Detail("joined_log_lines", std::to_string(queue_us.size()));
        report_.Set("service.queue_wait_p50_us", qs.p50);
        report_.Set("service.queue_wait_p99_us", qs.p99);
        report_.Set("service.exec_mean_us",
                    queue_us.empty() ? 0.0 : exec_ns / 1e3 / queue_us.size());
        report_.Set("service.worker_busy_share",
                    exec_ns / (double(workers) * traced.wall_ns));
        const double rejected = double(counters.rejected_queue_full +
                                       counters.rejected_in_flight +
                                       counters.rejected_throttled);
        report_.Set("service.rejected_share",
                    rejected / std::max(1.0, rejected + counters.submitted));
        report_.Set("server.transport_us", Median(transport_us));
        report_.Set("hash.checksum_share",
                    exec_ns > 0 ? checksum_ns / exec_ns : 0.0);
        report_.Set("executor.threads",
                    double(fpc::ServiceConfig{}.request_threads));

        const double mib = payload_bytes / (1 << 20);
        report_.Set("codec.minflt_per_mib", (u1.minflt - u0.minflt) / mib);
        report_.Set("codec.sys_share", (u1.sys_s - u0.sys_s) /
                                           (u1.user_s - u0.user_s +
                                            u1.sys_s - u0.sys_s));

        const fpc::TelemetrySnapshot snapshot = telemetry_->Snapshot();
        SetExecutorAndTransformLayers(snapshot, payload_bytes, report_);
        SetAdaptiveLayers(snapshot, report_);
        const double hits =
            ExpositionValue(after, "fpc_arena_pool_hits_total") -
            ExpositionValue(before, "fpc_arena_pool_hits_total");
        const double misses =
            ExpositionValue(after, "fpc_arena_pool_misses_total") -
            ExpositionValue(before, "fpc_arena_pool_misses_total");
        report_.Set("arena.pool_hit_share",
                    hits + misses > 0 ? hits / (hits + misses) : 0.0);

        SetProtocolLayers();

        std::vector<double> late;
        for (const Sample& s : traced.samples) {
            late.push_back((s.send - s.due) / 1e3);
        }
        report_.Set("loadgen.late_p99_us", Summarize(late).p99);
        report_.Set("loadgen.achieved_rps",
                    double(traced.samples.size()) / (traced.wall_ns / 1e9));
        report_.Set("trace.overhead_share",
                    Summarize(LatencyUs(traced.samples)).p50 /
                            Summarize(LatencyUs(plain.samples)).p50 -
                        1.0);
        report_.Set("trace.dropped_spans", double(trace_->DroppedCount()));

        const std::string lib_path = args_.out_dir + "/service-mix.lib-trace.json";
        if (trace_->WriteJson(lib_path)) {
            report_.Detail("library_trace_file", "\"" + lib_path + "\"");
        }
        std::vector<const SpanRecorder*> recorders;
        for (const auto& r : spans_) {
            if (r.enabled()) recorders.push_back(&r);
        }
        const std::string spans_path = args_.out_dir + "/service-mix.spans.json";
        if (WriteSpans(spans_path, recorders)) {
            report_.Detail("trace_file", "\"" + spans_path + "\"");
        }
        report_.Detail("request_log_file", "\"" + log_path_ + "\"");
        tracing_ = false;
    }

    /** Checksum64 over a kind's uncompressed bytes, timed by itself. */
    double
    ChecksumNs(size_t kind)
    {
        auto it = checksum_ns_.find(kind);
        if (it != checksum_ns_.end()) return it->second;
        const Item& item = catalogue_[kind][0];
        const fpc::Bytes& raw = kinds_[kind].verb == fpc::ServiceVerb::kCompress
                                    ? item.request.payload
                                    : item.expected;
        std::vector<double> ns;
        for (int i = 0; i < 9; ++i) {
            const uint64_t t0 = NowNs();
            volatile uint64_t sum = fpc::Checksum64(fpc::ByteSpan(raw));
            (void)sum;
            ns.push_back(double(NowNs() - t0));
        }
        return checksum_ns_[kind] = Median(ns);
    }

    /** Frame encode/decode of the workload's own messages, timed one
     *  call at a time over every prepared request and its reply. */
    void
    SetProtocolLayers()
    {
        double encode_ns = 0.0;
        double decode_ns = 0.0;
        size_t n = 0;
        for (auto& row : catalogue_) {
            for (Item& item : row) {
                fpc::ServiceResponse response;
                response.payload = item.expected;
                const uint64_t t0 = NowNs();
                const fpc::Bytes request_frame = fpc::EncodeRequest(item.request);
                const uint64_t t1 = NowNs();
                const fpc::Bytes response_frame = fpc::EncodeResponse(response);
                const uint64_t t2 = NowNs();
                const fpc::ServiceRequest back = fpc::DecodeRequest(request_frame);
                const uint64_t t3 = NowNs();
                const fpc::ServiceResponse back_response =
                    fpc::DecodeResponse(response_frame);
                const uint64_t t4 = NowNs();
                if (back.payload.size() != item.request.payload.size() ||
                    back_response.payload.size() != item.expected.size()) {
                    throw std::runtime_error("protocol round trip mismatch");
                }
                encode_ns += double((t1 - t0) + (t2 - t1));
                decode_ns += double((t3 - t2) + (t4 - t3));
                ++n;
            }
        }
        report_.Set("protocol.encode_us", encode_ns / 1e3 / double(n));
        report_.Set("protocol.decode_us", decode_ns / 1e3 / double(n));
    }

    const Args& args_;
    Report& report_;
    const std::vector<Kind> kinds_;
    size_t connections_ = 1;
    std::string socket_path_;
    std::string log_path_;
    std::vector<std::vector<Item>> catalogue_;  ///< [kind][variant]
    double catalogue_bytes_ = 0.0;
    std::map<size_t, double> checksum_ns_;
    std::unique_ptr<fpc::Telemetry> telemetry_;
    std::unique_ptr<fpc::TraceSink> trace_;
    std::unique_ptr<fpc::SocketServer> server_;
    std::vector<std::unique_ptr<fpc::SocketClient>> clients_;
    std::vector<SpanRecorder> spans_;
    std::atomic<uint64_t> next_op_{0};
    std::atomic<bool> injected_{false};
    bool tracing_ = false;
};

}  // namespace

void
RunServiceMix(const Args& args, Report& report)
{
    ServiceMix(args, report).Run();
}

}  // namespace fpcbench
