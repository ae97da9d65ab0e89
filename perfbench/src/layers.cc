/**
 * @file
 * The metric sets every workload reports, and the layer probes that
 * time each layer alone on the workload's inputs.
 */

#include <algorithm>
#include <optional>

#include "cache/fingerprint.h"
#include "common/rng.h"
#include "grape/grape.h"
#include "harness.h"
#include "linalg/eig.h"
#include "linalg/random_unitary.h"
#include "partial/strict.h"
#include "pulse/device.h"
#include "pulse/evolve.h"
#include "pulse/serialize.h"
#include "sim/statevector.h"

namespace perfbench {

using namespace qpc;

void
addEndToEnd(RunResult& result, const EndToEnd& e)
{
    result.add("setup_s", e.setupS, "s");
    result.add("latency_ms", e.latencyMs, "ms");
    result.add("throughput_per_s", e.throughputPerS, "1/s");
    result.add("pulse_ns", e.pulseNs, "ns");
}

void
addLayers(RunResult& result, const Layers& l)
{
    result.add("latency_p99_ms", l.latencyP99Ms, "ms");
    result.add("transpile.prepare_ms", l.prepareMs, "ms");
    result.add("cache.fingerprint_ms", l.fingerprintMs, "ms");
    result.add("runtime.serve_p50_us", l.serveP50Us, "us");
    result.add("cache.get_p50_us", l.cacheGetP50Us, "us");
    result.add("pulse.serialize_us", l.serializeUs, "us");
    result.add("pulse.deserialize_us", l.deserializeUs, "us");
    result.add("sim.energy_eval_us", l.simEvalUs, "us");
    result.add("linalg.eig_us_d4", l.eigUsD4, "us");
    result.add("linalg.eig_us_d8", l.eigUsD8, "us");
    result.add("grape.iter_us_2q", l.grapeIterUs2q, "us");
    result.add("grape.iter_us_3q", l.grapeIterUs3q, "us");
    result.add("server.share", l.serverShare, "share");
    result.add("runtime.share", l.runtimeShare, "share");
    result.add("grape.share", l.grapeShare, "share");
    result.add("pulse.decode_share", l.decodeShare, "share");
    result.add("unattributed_share",
               1.0 - l.serverShare - l.runtimeShare - l.grapeShare -
                   l.decodeShare,
               "share");
    result.add("linalg.eig_share", l.eigShare, "share");
    result.add("trace.overhead_share", l.traceOverheadShare, "share");
    result.add("cache.quant_misses", l.quantMisses, "count");
    result.add("cache.evictions", l.cacheEvictions, "count");
    result.add("grape.iterations", l.grapeIterations, "count");
    result.add("vqe.evaluations", l.vqeEvaluations, "count");
    result.add("opt.iterations", l.optIterations, "count");
    result.add("runtime.refine_rounds", l.refineRounds, "count");
    result.add("runtime.refine_synths", l.refineSynths, "count");
    result.add("cache.bytes_released", l.bytesReleased, "bytes");
    result.add("protocol.reply_bytes", l.replyBytes, "bytes");
}

namespace {

/** Median microseconds of `reps` timed calls of f, under one span. */
template <class F>
double
medianMicros(const char* span, int reps, F&& f)
{
    std::vector<double> ns;
    for (int i = 0; i < reps; ++i)
        ns.push_back(timedSpan(span, f));
    return median(std::move(ns)) / 1e3;
}

} // namespace

double
eigMicros(int qubits, std::uint64_t seed)
{
    const DeviceModel device = DeviceModel::gmonClique(qubits);
    Rng rng(streamSeed(seed, 100 + qubits));
    std::vector<double> ns;
    for (int i = 0; i < 400; ++i) {
        std::vector<double> amps(device.numControls());
        for (double& a : amps)
            a = rng.uniform(-1.0, 1.0);
        const CMatrix h = sliceHamiltonian(device, amps);
        ns.push_back(timedSpan("linalg.eig", [&] { eigHermitian(h); }));
    }
    return median(std::move(ns)) / 1e3;
}

namespace {

/** Wall time per GRAPE iteration toward a seeded Haar-random width-q
 * target: a fixed number of iterations (the target fidelity is out of
 * reach), median over three runs. */
double
grapeIterMicros(int qubits, double duration_ns, std::uint64_t seed)
{
    const DeviceModel device = DeviceModel::gmonClique(qubits);
    Rng rng(streamSeed(seed, 200 + qubits));
    const CMatrix target = haarUnitary(1 << qubits, rng);
    GrapeOptions options;
    options.maxIterations = 5;
    options.targetFidelity = 2.0;
    std::vector<double> us;
    for (int rep = 0; rep < 3; ++rep) {
        GrapeResult g;
        const double ns = timedSpan("grape.run", [&] {
            g = runGrapeFixedTime(device, target, duration_ns, options);
        });
        us.push_back(ns / 1e3 / std::max(1, g.iterations));
    }
    return median(std::move(us));
}

} // namespace

void
probeLayers(const ProbeTarget& target, Layers& layers, RunResult& result)
{
    CompileService& service = *target.service;
    const Circuit circuit = target.buildTemplate();

    StrictPartition partition;
    layers.prepareMs = medianMicros("transpile.prepare", 7, [&] {
                           partition =
                               strictPartition(target.buildTemplate());
                       }) /
                       1e3;
    std::vector<double> fingerprint_ns;
    for (int i = 0; i < 7; ++i) {
        CompileService fresh(target.options);
        fingerprint_ns.push_back(timedSpan(
            "cache.fingerprint", [&] { fresh.prepareServing(partition); }));
    }
    layers.fingerprintMs = median(fingerprint_ns) / 1e6;

    Rng rng(streamSeed(target.seed, 300));
    ServedPulse last;
    std::vector<double> serve_ns;
    for (int i = 0; i < 500; ++i) {
        const std::vector<double> theta = rng.angles(circuit.numParams());
        serve_ns.push_back(timedSpan("runtime.serve", [&] {
            last = service.serve(*target.plan, theta);
        }));
    }
    layers.serveP50Us = median(serve_ns) / 1e3;

    std::vector<BlockFingerprint> fps;
    for (const Circuit& block : service.fixedBlocksOf(circuit))
        fps.push_back(fingerprintBlock(block));
    if (fps.empty())
        result.invalidate("the template has no Fixed block to look up");
    std::vector<double> get_ns;
    for (int round = 0; round < 200; ++round)
        for (const BlockFingerprint& fp : fps)
            get_ns.push_back(timedSpan(
                "cache.get", [&] { service.cache().get(fp); }));
    layers.cacheGetP50Us = median(get_ns) / 1e3;

    std::vector<double> ser, de;
    for (int rep = 0; rep < 21; ++rep) {
        std::vector<std::vector<std::uint8_t>> records;
        ser.push_back(timedSpan("pulse.serialize", [&] {
            for (const PulsePtr& seg : last.segments)
                records.push_back(serializePulseSchedule(*seg));
        }));
        bool decoded = true;
        de.push_back(timedSpan("pulse.deserialize", [&] {
            for (const auto& rec : records)
                decoded =
                    deserializePulseSchedule(rec).has_value() && decoded;
        }));
        if (!decoded)
            result.invalidate("a serialized segment did not decode");
    }
    layers.serializeUs = median(ser) / 1e3;
    layers.deserializeUs = median(de) / 1e3;

    std::vector<double> eval_ns;
    for (int i = 0; i < 100; ++i) {
        const Circuit bound = circuit.bind(rng.angles(circuit.numParams()));
        eval_ns.push_back(timedSpan("sim.energy_eval", [&] {
            StateVector state(circuit.numQubits());
            state.applyCircuit(bound);
            target.hamiltonian->expectation(state);
        }));
    }
    layers.simEvalUs = median(eval_ns) / 1e3;

    layers.eigUsD4 = eigMicros(2, target.seed);
    layers.eigUsD8 = eigMicros(3, target.seed);
    layers.grapeIterUs2q = grapeIterMicros(2, 10.0, target.seed);
    layers.grapeIterUs3q = grapeIterMicros(3, 15.0, target.seed);
}

} // namespace perfbench
