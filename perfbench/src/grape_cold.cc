/**
 * @file
 * grape_cold: the paper's headline compilation latency.
 *
 * A fresh CompileService with grapeBlockSynthesizer() defaults, two
 * workers, an empty memory tier and no disk tier compiles the Fixed
 * blocks of the LiH UCCSD benchmark circuit at maxBlockWidth = 3
 * (50 blocks, 23 unique). Width 4 is left out to keep one compile
 * near 10 s: a 4-qubit block's GRAPE works on dim-16 matrices.
 *
 * Output check: every unique block's cached pulse is re-simulated
 * with evolveUnitary (a Taylor propagator, independent of GRAPE's
 * eigensolver path) and scored with traceFidelity against
 * circuitUnitary. A block below GrapeOptions::targetFidelity is a
 * failed operation: grapeBlockSynthesizer returns unconverged pulses
 * without saying so, and the benchmark keeps those blocks in its
 * input on purpose.
 */

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>

#include "bench/benchcommon.h"
#include "cache/fingerprint.h"
#include "grape/grape.h"
#include "harness.h"
#include "model/timemodel.h"
#include "partial/strict.h"
#include "pulse/device.h"
#include "pulse/evolve.h"
#include "runtime/service.h"
#include "sim/statevector.h"
#include "vqe/hamiltonian.h"

namespace perfbench {

namespace {

using namespace qpc;

constexpr int kWorkers = 2;
/** Compiles per untraced run, at least: on a slow host one compile
 * alone would fill the run, and a single sample is the noisiest. */
constexpr std::size_t kMinCompiles = 2;
/** Set-ups timed before the first compile and after each one. */
constexpr int kSetupBurst = 34;
/** Seeded bindings whose served programs give pulse_ns. */
constexpr int kPulseBindings = 16;

CompileServiceOptions
serviceOptions()
{
    CompileServiceOptions options;
    options.numWorkers = kWorkers;
    options.maxBlockWidth = 3;
    options.synthesizer = grapeBlockSynthesizer();
    return options;
}

std::unique_ptr<CompileService>
makeService()
{
    return std::make_unique<CompileService>(serviceOptions());
}

/** The distinct local Fixed blocks of the template, first-seen order. */
std::vector<Circuit>
uniqueBlocks(const CompileService& service, const Circuit& circuit)
{
    std::unordered_set<BlockFingerprint, BlockFingerprintHash> seen;
    std::vector<Circuit> out;
    for (Circuit& block : service.fixedBlocksOf(circuit))
        if (seen.insert(fingerprintBlock(block)).second)
            out.push_back(std::move(block));
    return out;
}

DeviceModel
blockDevice(const Circuit& block)
{
    return DeviceModel::gmonClique(std::max(1, block.numQubits()));
}

std::string
describe(const Circuit& block)
{
    std::string gates;
    for (const GateOp& op : block.ops())
        gates += (gates.empty() ? "" : " ") + gateName(op.kind);
    return std::to_string(block.numQubits()) + "q [" + gates + "]";
}

/** One cold compile plus its output check. The service stays warm
 * for the layer probes. */
struct Compile
{
    double seconds = 0.0;
    int blocks = 0;
    int failed = 0;
    double pulseNs = 0.0;
    ServiceTelemetry telemetry;
    std::uint64_t evictions = 0;
    std::unique_ptr<CompileService> service;
    std::optional<ServingPlan> plan;
};

Compile
compileOnce(const Circuit& circuit, const StrictPartition& partition,
            const std::vector<Circuit>& blocks, std::uint64_t seed,
            RunResult& result, bool report_failures)
{
    Compile c;
    c.service = makeService();
    CompileService* service = c.service.get();
    const ServingPlan& plan =
        c.plan.emplace(service->prepareServing(partition));
    c.seconds = timedSpan("runtime.precompile", [&] {
                    service->precompilePlan(plan);
                }) /
                1e9;
    c.telemetry = service->telemetry();
    c.evictions = service->cacheStats().evictions;

    const double target = GrapeOptions{}.targetFidelity;
    for (const Circuit& block : blocks) {
        const PulseSchedule pulse = service->compileBlock(block);
        const double fidelity = traceFidelity(
            circuitUnitary(block), evolveUnitary(blockDevice(block), pulse));
        ++c.blocks;
        if (fidelity < target) {
            ++c.failed;
            if (report_failures) {
                char line[160];
                std::snprintf(line, sizeof line,
                              "below target: %s at %.2f ns, fidelity %.4f",
                              describe(block).c_str(), pulse.durationNs(),
                              fidelity);
                result.note(line);
            }
        }
    }

    // The served program of a few seeded bindings: compiled Fixed
    // pulses plus the parametrized rotations at those angles.
    Rng rng(streamSeed(seed, 0));
    for (int i = 0; i < kPulseBindings; ++i)
        c.pulseNs +=
            service->serve(plan, rng.angles(circuit.numParams())).pulseNs /
            kPulseBindings;
    return c;
}

} // namespace

RunResult
runGrapeCold(const RunConfig& config)
{
    RunResult result;
    const MoleculeSpec& spec = moleculeByName("LiH");

    // Set-up: template build, strict partition, service construction
    // and fingerprinting (prepareServing).
    SetupSampler setup([&] {
        const StrictPartition partition =
            strictPartition(bench::vqeBenchmarkCircuit(spec));
        makeService()->prepareServing(partition);
    });
    setup.burst(kSetupBurst);

    const Circuit circuit = bench::vqeBenchmarkCircuit(spec);
    const StrictPartition partition = strictPartition(circuit);
    const std::vector<Circuit> blocks =
        uniqueBlocks(*makeService(), circuit);

    const auto tally = [&](const Compile& c) {
        result.attempted += static_cast<std::uint64_t>(c.blocks);
        result.failed += static_cast<std::uint64_t>(c.failed);
    };

    if (!config.trace) {
        // Whole compiles: at least kMinCompiles, then more while the
        // next one should still end near the run length.
        std::vector<double> compile_s, blocks_per_s;
        double pulse_ns = 0.0;
        const Clock::time_point t0 = Clock::now();
        do {
            const Compile c = compileOnce(circuit, partition, blocks,
                                          config.seed, result,
                                          compile_s.empty());
            tally(c);
            compile_s.push_back(c.seconds);
            blocks_per_s.push_back(static_cast<double>(blocks.size()) /
                                   c.seconds);
            pulse_ns = c.pulseNs;
            setup.burst(kSetupBurst);
        } while (compile_s.size() < kMinCompiles ||
                 secondsSince(t0) + median(compile_s) <=
                     config.seconds * 1.2);
        EndToEnd e;
        e.setupS = setup.median();
        e.latencyMs = median(compile_s) * 1e3;
        e.throughputPerS = median(blocks_per_s);
        e.pulseNs = pulse_ns;
        addEndToEnd(result, e);
        std::string times;
        for (double t : compile_s)
            times += " " + std::to_string(t);
        result.note(std::to_string(compile_s.size()) + " compiles of " +
                    std::to_string(blocks.size()) + " unique blocks, s:" +
                    times);
        return result;
    }

    // Traced run: one untraced and one traced compile (the overhead),
    // then a replay of GRAPE per unique block for the layer counts.
    qpc::setTraceEnabled(false);
    const Compile plain =
        compileOnce(circuit, partition, blocks, config.seed, result, true);
    qpc::setTraceEnabled(true);
    const Compile traced = compileOnce(circuit, partition, blocks,
                                       config.seed, result, false);
    tally(plain);
    tally(traced);

    struct Replay
    {
        int qubits = 0;
        int iterations = 0;
        int slices = 0;
        double wallNs = 0.0;
    };
    std::vector<Replay> replays(blocks.size());
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w)
        threads.emplace_back([&, w] {
            for (std::size_t i = static_cast<std::size_t>(w);
                 i < blocks.size(); i += kWorkers) {
                const Circuit& block = blocks[i];
                GrapeResult g;
                const double ns = timedSpan("grape.run", [&] {
                    g = runGrapeFixedTime(blockDevice(block),
                                          circuitUnitary(block),
                                          PulseTimeModel().blockTimeNs(block));
                });
                replays[i] = {block.numQubits(), g.iterations,
                              g.pulse.numSamples(), ns};
            }
        });
    for (std::thread& th : threads)
        th.join();

    Layers layers;
    const PauliHamiltonian hamiltonian = moleculeHamiltonian(spec);
    probeLayers({[&] { return bench::vqeBenchmarkCircuit(spec); },
                 serviceOptions(), traced.service.get(), &*traced.plan,
                 &hamiltonian, config.seed},
                layers, result);
    const std::map<int, double> eig_us = {
        {1, eigMicros(1, config.seed)},
        {2, layers.eigUsD4},
        {3, layers.eigUsD8}};

    long long iterations = 0;
    double eig_ns = 0.0, wall_ns = 0.0;
    for (const Replay& r : replays) {
        iterations += r.iterations;
        wall_ns += r.wallNs;
        eig_ns += static_cast<double>(r.slices) * r.iterations *
                  eig_us.at(r.qubits) * 1e3;
    }

    layers.latencyP99Ms = plain.seconds * 1e3;
    layers.grapeShare = static_cast<double>(plain.telemetry.synthNs.sumNs) /
                        (kWorkers * plain.seconds * 1e9);
    layers.eigShare = eig_ns / wall_ns;
    layers.traceOverheadShare = traced.seconds / plain.seconds - 1.0;
    layers.cacheEvictions = static_cast<double>(plain.evictions);
    layers.grapeIterations = static_cast<double>(iterations);
    addLayers(result, layers);
    return result;
}

} // namespace perfbench
