/**
 * @file
 * fpcbench: the fpcomp benchmark binary. Normally started by
 * perfbench/run.py, which builds it and turns its last line into the
 * benchmark result. Usage:
 *
 *   fpcbench --workload checkpoint|service-mix|range-read --seed N
 *            --seconds S --trace 0|1 [--small] [--inject-fault]
 *            [--out-dir DIR] [--commit SHA]
 */
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "bench.h"
#include "core/telemetry.h"
#include "util/cpu_features.h"

#ifndef FPCBENCH_BUILD_TYPE
#define FPCBENCH_BUILD_TYPE "unknown"
#endif

namespace fpcbench {

std::string
FactsJson(const Args& args)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int nproc = sched_getaffinity(0, sizeof set, &set) == 0
                          ? CPU_COUNT(&set)
                          : static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
#if defined(_OPENMP)
    const int threads = omp_get_max_threads();
#else
    const int threads = 1;
#endif
    const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
    const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    std::string out = "{\"workload\": \"" + args.workload + "\"";
    out += ", \"seed\": " + std::to_string(args.seed);
    out += ", \"seconds\": " + std::to_string(args.seconds);
    out += ", \"trace\": " + std::string(args.trace ? "true" : "false");
    out += ", \"small\": " + std::string(args.small ? "true" : "false");
    out += ", \"commit\": \"" + args.commit + "\"";
    out += ", \"executor_threads\": " + std::to_string(threads);
    out += ", \"nproc\": " + std::to_string(nproc);
    out += ", \"isa\": \"" +
           std::string(fpc::simd::IsaName(fpc::simd::DefaultIsa())) + "\"";
    out += ", \"fpc_telemetry\": " +
           std::string(fpc::kTelemetryEnabled ? "true" : "false");
    out += ", \"build_type\": \"" FPCBENCH_BUILD_TYPE "\"";
    out += ", \"compiler\": \"" __VERSION__ "\"";
    out += ", \"l2_bytes\": " + std::to_string(l2 > 0 ? l2 : 0);
    out += ", \"llc_bytes\": " + std::to_string(llc > 0 ? llc : 0);
    out += "}";
    return out;
}

namespace {

[[noreturn]] void
UsageExit(const char* why)
{
    std::fprintf(stderr,
                 "fpcbench: %s\nusage: fpcbench --workload "
                 "checkpoint|service-mix|range-read --seed N --seconds S "
                 "--trace 0|1 [--small] [--inject-fault] [--out-dir DIR] "
                 "[--commit SHA]\n",
                 why);
    std::exit(2);
}

Args
ParseArgs(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) UsageExit(("missing value for " + flag).c_str());
            return argv[++i];
        };
        if (flag == "--workload") {
            args.workload = value();
        } else if (flag == "--seed") {
            args.seed = std::stoull(value());
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value());
        } else if (flag == "--trace") {
            args.trace = value() == "1";
        } else if (flag == "--small") {
            args.small = true;
        } else if (flag == "--inject-fault") {
            args.inject_fault = true;
        } else if (flag == "--out-dir") {
            args.out_dir = value();
        } else if (flag == "--commit") {
            args.commit = value();
        } else {
            UsageExit(("unknown flag " + flag).c_str());
        }
    }
    if (args.seconds <= 0) UsageExit("--seconds must be positive");
    return args;
}

}  // namespace
}  // namespace fpcbench

int
main(int argc, char** argv)
{
    using namespace fpcbench;
    const Args args = ParseArgs(argc, argv);
    std::filesystem::create_directories(args.out_dir);
    Report report;
    try {
        const IdleSpinners spinners;
        if (args.workload == "checkpoint") {
            RunCheckpoint(args, report);
        } else if (args.workload == "service-mix") {
            RunServiceMix(args, report);
        } else if (args.workload == "range-read") {
            RunRangeRead(args, report);
        } else {
            UsageExit("unknown workload");
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fpcbench: %s\n", e.what());
        return 1;
    }
    if (!args.trace && report.attempted() > 0) {
        report.Set("ok_frac", double(report.attempted() - report.failed()) /
                                  double(report.attempted()));
        report.Set("peak_rss_mib", PeakRssMiB());
    }
    return report.Finish(args);
}
