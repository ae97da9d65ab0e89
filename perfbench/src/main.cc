/**
 * @file
 * perfbench: the repository benchmark's load generator.
 *
 *   perfbench --workload wire_serve --seed 1 --seconds 10 --trace 0 \
 *             --daemon .bench_build/qpc/examples/qpc_serverd
 *
 * Runs one workload in this process (spawning qpc_serverd for the
 * wire workloads), checks its outputs, and prints one JSON object as
 * the last line of stdout:
 *
 *   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
 *
 * --trace 0 reports the workload's end-to-end metrics; --trace 1 the
 * per-layer ones, and writes the span trace to
 * <out>/trace-<workload>-<seed>.json (open it in ui.perfetto.dev).
 * Exit status is 0 whenever a result line was printed.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/logging.h"
#include "harness.h"
#include "telemetry/trace.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload "
                 "wire_serve|wire_pulses|grape_cold|vqe_adaptive "
                 "--seed N --seconds S --trace 0|1 "
                 "[--daemon PATH] [--out DIR]\n",
                 why);
    std::exit(2);
}

RunConfig
parseArgs(int argc, char** argv)
{
    RunConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        if (key == "--workload")
            config.workload = value;
        else if (key == "--seed")
            config.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            config.seconds = std::atof(value.c_str());
        else if (key == "--trace")
            config.trace = value == "1";
        else if (key == "--daemon")
            config.daemon = value;
        else if (key == "--out")
            config.outDir = value;
        else
            usage(("unknown flag " + key).c_str());
    }
    if (config.workload.empty())
        usage("--workload is required");
    if (!(config.seconds > 0.0))
        usage("--seconds must be positive");
    return config;
}

void
printResult(const RunResult& result)
{
    for (const std::string& line : result.notes)
        std::printf("# %s\n", line.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": {",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric& m = result.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char** argv)
{
    const RunConfig config = parseArgs(argc, argv);
    qpc::setLogLevel(qpc::LogLevel::Warn);
    if (config.trace)
        qpc::setTraceEnabled(true);

    RunResult result;
    try {
        if (config.workload == "wire_serve")
            result = runWireWorkload(config, false);
        else if (config.workload == "wire_pulses")
            result = runWireWorkload(config, true);
        else if (config.workload == "grape_cold")
            result = runGrapeCold(config);
        else if (config.workload == "vqe_adaptive")
            result = runVqeAdaptive(config);
        else
            usage(("unknown workload " + config.workload).c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     config.workload.c_str(), e.what());
        return 1;
    }

    if (config.trace) {
        const std::string path = config.outDir + "/trace-" +
                                 config.workload + "-" +
                                 std::to_string(config.seed) + ".json";
        if (qpc::dumpTraceJson(path))
            result.note("trace written to " + path);
    }
    printResult(result);
    return 0;
}
