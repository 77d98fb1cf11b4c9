#include <immintrin.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "core/telemetry.h"
#include "data/fields.h"
#include "util/hash.h"

namespace fpcbench {

uint64_t
NowNs()
{
    return fpc::TelemetryNowNs();
}

double
Median(std::vector<double> values)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/** Nearest-rank percentile @p q in [0, 1] of sorted @p sorted. */
double
SortedPercentile(const std::vector<double>& sorted, double q)
{
    if (sorted.empty()) return 0.0;
    auto rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

}  // namespace

LatencySummary
Summarize(std::vector<double> samples)
{
    LatencySummary out;
    out.count = samples.size();
    if (samples.empty()) return out;
    std::sort(samples.begin(), samples.end());
    out.p50 = SortedPercentile(samples, 0.50);
    out.p99 = SortedPercentile(samples, 0.99);
    // Highest percentile with at least ten samples above its rank.
    if (samples.size() > 10) {
        const size_t rank = samples.size() - 10;
        out.top_pct = 100.0 * static_cast<double>(rank) /
                      static_cast<double>(samples.size());
        out.top = samples[rank - 1];
    }
    return out;
}

LatencySummary
SummarizeWindows(const std::vector<std::vector<double>>& windows)
{
    std::vector<double> all;
    std::vector<double> p50;
    std::vector<double> p99;
    for (const auto& w : windows) {
        if (w.empty()) continue;
        const LatencySummary ws = Summarize(w);
        p50.push_back(ws.p50);
        p99.push_back(ws.p99);
        all.insert(all.end(), w.begin(), w.end());
    }
    LatencySummary out = Summarize(std::move(all));
    out.p50 = Median(p50);
    out.p99 = Median(p99);
    out.windows = p50.size();
    return out;
}

std::vector<std::vector<double>>
Windows(const std::vector<std::pair<uint64_t, double>>& samples,
        uint64_t window_ns)
{
    std::vector<std::vector<double>> out;
    if (samples.empty()) return out;
    uint64_t first = samples.front().first;
    for (const auto& [t, v] : samples) first = std::min(first, t);
    for (const auto& [t, v] : samples) {
        const size_t w = static_cast<size_t>((t - first) / window_ns);
        if (out.size() <= w) out.resize(w + 1);
        out[w].push_back(v);
    }
    return out;
}

std::string
SummaryJson(const LatencySummary& s)
{
    std::ostringstream out;
    out.precision(6);
    out << "{\"count\": " << s.count << ", \"p50_us\": " << s.p50
        << ", \"p99_us\": " << s.p99 << ", \"top_pct\": " << s.top_pct
        << ", \"top_us\": " << s.top << ", \"windows\": " << s.windows
        << "}";
    return out.str();
}

Usage
ReadUsage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
    u.minflt = static_cast<uint64_t>(ru.ru_minflt);
    return u;
}

double
PeakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::map<std::string, uint64_t>
SelfTimeByName(const std::vector<SpanRecorder::Span>& spans)
{
    // Children of each span, as intervals; a child's covered part is
    // clipped to its parent and overlapping children count once.
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
        spans.size());
    for (const auto& span : spans) {
        if (span.parent >= 0) {
            children[static_cast<size_t>(span.parent)].emplace_back(
                span.start_ns, span.end_ns);
        }
    }
    std::map<std::string, uint64_t> self;
    for (size_t i = 0; i < spans.size(); ++i) {
        const auto& span = spans[i];
        const uint64_t dur =
            span.end_ns > span.start_ns ? span.end_ns - span.start_ns : 0;
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        uint64_t covered = 0;
        uint64_t cursor = span.start_ns;
        for (auto [a, b] : kids) {
            a = std::max(a, cursor);
            b = std::min(b, span.end_ns);
            if (b > a) {
                covered += b - a;
                cursor = b;
            }
        }
        self[span.name] += dur > covered ? dur - covered : 0;
    }
    return self;
}

bool
WriteSpans(const std::string& path,
           const std::vector<const SpanRecorder*>& recorders)
{
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"schema\": \"fpcbench.spans.v1\", \"traceEvents\": [";
    bool first = true;
    for (const SpanRecorder* recorder : recorders) {
        const auto& spans = recorder->spans();
        for (size_t i = 0; i < spans.size(); ++i) {
            const auto& span = spans[i];
            out << (first ? "\n" : ",\n");
            first = false;
            out << "{\"name\": \"" << span.name
                << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.thread
                << ", \"ts\": " << static_cast<double>(span.start_ns) / 1e3
                << ", \"dur\": "
                << static_cast<double>(span.end_ns - span.start_ns) / 1e3
                << ", \"args\": {\"op\": " << span.op
                << ", \"index\": " << i << ", \"parent\": " << span.parent
                << "}}";
        }
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

void
Report::Set(const std::string& name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    values_[name] = value;
}

void
Report::Detail(const std::string& key, const std::string& json)
{
    std::lock_guard<std::mutex> lock(mutex_);
    details_.emplace_back(key, json);
}

void
Report::Fail(const std::string& why)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(why);
}

namespace {

std::string
Quoted(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out + "\"";
}

}  // namespace

int
Report::Finish(const Args& args)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::printf("{\"facts\": %s}\n", FactsJson(args).c_str());
    for (const auto& [key, json] : details_) {
        std::printf("{\"detail\": %s, \"value\": %s}\n", Quoted(key).c_str(),
                    json.c_str());
    }
    for (const auto& why : failures_) {
        std::fprintf(stderr, "fpcbench: failed op: %s\n", why.c_str());
    }
    const bool correct = failed_ == 0 && attempted_ > 0;
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted_);
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"values\": {";
    bool first = true;
    char buf[64];
    for (const auto& [name, value] : values_) {
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        line += (first ? "" : ", ") + Quoted(name) + ": " + buf;
        first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

namespace {

/** Fill @p out with kSegments independently seeded segments, each the
 *  first values of @p make(values, seed_i) (which may return more). Many
 *  segments average out how much one seed's field shape moves the
 *  compressibility; four threads generate them. */
template <typename T, typename Make>
void
FillSegments(std::vector<T>& out, size_t values, uint64_t seed, Make make)
{
    constexpr size_t kSegments = 16;
    constexpr size_t kThreads = 4;
    out.resize(values);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&out, values, seed, t, &make] {
            for (size_t i = t; i < kSegments; i += kThreads) {
                const size_t begin = values * i / kSegments;
                const size_t end = values * (i + 1) / kSegments;
                const auto segment =
                    make(end - begin, fpc::Mix64(seed * kSegments + i));
                std::copy_n(segment.begin(), end - begin,
                            out.begin() + begin);
            }
        });
    }
    for (auto& t : threads) t.join();
}

}  // namespace

std::vector<float>
SpField(size_t values, uint64_t seed)
{
    std::vector<float> out;
    FillSegments(out, values, seed, [](size_t n, uint64_t s) {
        const size_t nx = 4096;
        return fpc::data::ToFloats(
            fpc::data::SmoothField2d(nx, (n + nx - 1) / nx, s, 1e-4));
    });
    return out;
}

std::vector<double>
DpField(size_t values, uint64_t seed)
{
    std::vector<double> out;
    FillSegments(out, values, seed, [](size_t n, uint64_t s) {
        return fpc::data::SmoothField(n, s, 3, 1e-7);
    });
    return out;
}

IdleSpinners::IdleSpinners()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int cpus = sched_getaffinity(0, sizeof set, &set) == 0
                         ? CPU_COUNT(&set)
                         : 1;
    for (int i = 0; i < cpus; ++i) {
        threads_.emplace_back([this] {
            sched_param param{};
            if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) !=
                0) {
                return;  // never spin at normal priority
            }
            while (!stop_.load(std::memory_order_relaxed)) _mm_pause();
        });
    }
}

IdleSpinners::~IdleSpinners()
{
    stop_.store(true);
    for (auto& t : threads_) t.join();
}

void
CorruptOneByte(fpc::Bytes& data)
{
    if (!data.empty()) data[data.size() / 2] ^= std::byte{0x01};
}

}  // namespace fpcbench
