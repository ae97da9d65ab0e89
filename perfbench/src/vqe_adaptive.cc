/**
 * @file
 * vqe_adaptive: the hybrid loop itself.
 *
 * runVqe on the BeH2 UCCSD ansatz and moleculeHamiltonian, Nelder-Mead
 * capped at 2000 iterations with two evaluation threads. Every
 * objective is served through a benchmark-owned service (one worker,
 * adaptive angle quantization over 64 bins) that refines its grid,
 * with cache puts and erases, while it serves reads. The optimizer
 * walks locally through parameter space, unlike the wire workloads'
 * uniform bindings over the whole grid.
 *
 * Output check: the energy is variational (not below the exact ground
 * energy) and bit-identical across the solves of one run, which all
 * start from the same initial point. A solve failing either check is
 * a failed operation.
 */

#include <cmath>
#include <cstring>

#include "bench/benchcommon.h"
#include "harness.h"
#include "partial/strict.h"
#include "runtime/service.h"
#include "sim/pauli.h"
#include "vqe/hamiltonian.h"
#include "vqe/vqedriver.h"

namespace perfbench {

namespace {

using namespace qpc;

/** Set-ups timed before the first solve and after each one. */
constexpr int kSetupBurst = 8;
constexpr int kOptimizerThreads = 2;
/** Seeded bindings whose served programs give pulse_ns. */
constexpr int kPulseBindings = 16;
/**
 * Initial-point seed of every solve, fixed rather than drawn from the
 * run seed: Nelder-Mead from different start points stops in
 * different local minima (seeds 1-3 gave solves of 1.35-2.03 s and
 * energy errors of 0.38-0.71 Ha), a spread no regression bound could
 * hold. The run seed picks the bindings of pulse_ns and of the layer
 * probes instead.
 */
constexpr std::uint64_t kStartSeed = 0;

CompileServiceOptions
serviceOptions()
{
    CompileServiceOptions options;
    options.numWorkers = 1;
    options.quantization.enabled = true;
    options.quantization.adaptive = true;
    options.quantization.bins = 64;
    return options;
}

struct Solve
{
    VqeResult result;
    double seconds = 0.0;
    int optimizerIterations = 0;
    ServiceStats stats;
    ServiceTelemetry telemetry;
    std::uint64_t evictions = 0;
};

/** A warm service of the solves' options with the ansatz's plan
 * prepared and precompiled, for pulse_ns and the layer probes. */
struct Served
{
    explicit Served(const Circuit& ansatz)
        : service(serviceOptions()),
          plan(service.prepareServing(strictPartition(ansatz)))
    {
        service.precompilePlan(plan);
    }
    CompileService service;
    ServingPlan plan;
};

Solve
solveOnce(const Circuit& ansatz, const PauliHamiltonian& hamiltonian,
          std::uint64_t seed)
{
    Solve s;
    CompileService service(serviceOptions());
    VqeRunOptions options;
    options.optimizer.maxIterations = 2000;
    options.optimizer.onIteration =
        [&s](const NelderMeadIterationInfo&) { ++s.optimizerIterations; };
    options.optimizerThreads = kOptimizerThreads;
    options.seed = seed;
    options.compileService = &service;
    s.seconds = timedSpan("vqe.run", [&] {
                    s.result = runVqe(ansatz, hamiltonian, options);
                }) /
                1e9;
    s.stats = service.stats();
    s.telemetry = service.telemetry();
    s.evictions = service.cacheStats().evictions;
    return s;
}

std::uint64_t
bits(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Check one solve against the variational bound and the run's first
 * energy; true when it passes. */
bool
checkSolve(const Solve& s, const Solve& first, RunResult& result)
{
    const VqeResult& r = s.result;
    bool ok = std::isfinite(r.energy) &&
              r.energy >= r.exactGroundEnergy - 1e-9 &&
              bits(r.energy) == bits(first.result.energy);
    ++result.attempted;
    if (!ok) {
        ++result.failed;
        result.note("solve failed the check: energy " +
                    std::to_string(r.energy) + ", exact " +
                    std::to_string(r.exactGroundEnergy) + ", first " +
                    std::to_string(first.result.energy));
    }
    return ok;
}

} // namespace

RunResult
runVqeAdaptive(const RunConfig& config)
{
    RunResult result;
    const MoleculeSpec& spec = moleculeByName("BeH2");

    // Set-up: template and Hamiltonian build, strict partition,
    // service construction and fingerprinting (prepareServing).
    SetupSampler setup([&] {
        const StrictPartition partition =
            strictPartition(bench::vqeBenchmarkCircuit(spec));
        const PauliHamiltonian hamiltonian = moleculeHamiltonian(spec);
        CompileService(serviceOptions()).prepareServing(partition);
    });
    setup.burst(kSetupBurst);

    const Circuit ansatz = bench::vqeBenchmarkCircuit(spec);
    const PauliHamiltonian hamiltonian = moleculeHamiltonian(spec);

    if (!config.trace) {
        std::vector<double> solve_s, evals_per_s;
        std::vector<Solve> solves;
        const Clock::time_point t0 = Clock::now();
        do {
            solves.push_back(solveOnce(ansatz, hamiltonian, kStartSeed));
            checkSolve(solves.back(), solves.front(), result);
            solve_s.push_back(solves.back().seconds);
            evals_per_s.push_back(solves.back().result.iterations /
                                  solves.back().seconds);
            setup.burst(kSetupBurst);
        } while (secondsSince(t0) + median(solve_s) <=
                 config.seconds * 1.2);
        Served served(ansatz);
        Rng rng(streamSeed(config.seed, 0));
        double pulse_ns = 0.0;
        for (int i = 0; i < kPulseBindings; ++i)
            pulse_ns += served.service
                            .serve(served.plan,
                                   rng.angles(ansatz.numParams()))
                            .pulseNs /
                        kPulseBindings;
        EndToEnd e;
        e.setupS = setup.median();
        e.latencyMs = median(solve_s) * 1e3;
        e.throughputPerS = median(evals_per_s);
        e.pulseNs = pulse_ns;
        addEndToEnd(result, e);
        const VqeResult& r = solves.front().result;
        result.note("energy error " +
                    std::to_string(r.energy - r.exactGroundEnergy) +
                    " Ha after " + std::to_string(r.iterations) +
                    " evaluations");
        std::string times;
        for (double t : solve_s)
            times += " " + std::to_string(t);
        result.note(std::to_string(solves.size()) + " solves, s:" + times);
        return result;
    }

    // Traced run: one untraced and one traced solve (the overhead).
    qpc::setTraceEnabled(false);
    const Solve plain = solveOnce(ansatz, hamiltonian, kStartSeed);
    qpc::setTraceEnabled(true);
    const Solve traced = solveOnce(ansatz, hamiltonian, kStartSeed);
    checkSolve(plain, plain, result);
    checkSolve(traced, plain, result);

    Served served(ansatz);
    Layers layers;
    probeLayers({[&] { return bench::vqeBenchmarkCircuit(spec); },
                 serviceOptions(), &served.service, &served.plan,
                 &hamiltonian, config.seed},
                layers, result);

    const VqeResult& r = plain.result;
    layers.latencyP99Ms = plain.seconds * 1e3;
    layers.runtimeShare =
        static_cast<double>(plain.telemetry.serveNs.sumNs) /
        (kOptimizerThreads * plain.seconds * 1e9);
    layers.traceOverheadShare = traced.seconds / plain.seconds - 1.0;
    layers.quantMisses = static_cast<double>(plain.stats.quantMisses);
    layers.cacheEvictions = static_cast<double>(plain.evictions);
    layers.vqeEvaluations = r.iterations;
    layers.optIterations = plain.optimizerIterations;
    layers.refineRounds = r.quantRefineRounds;
    layers.refineSynths = static_cast<double>(r.quantRefineSynths);
    layers.bytesReleased = static_cast<double>(r.quantBytesReleased);
    addLayers(result, layers);
    return result;
}

} // namespace perfbench
