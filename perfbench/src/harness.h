/**
 * @file
 * Shared plumbing of the perfbench load generator: run configuration,
 * the result record every workload fills, order statistics, and the
 * layer span helper.
 *
 * Layer spans are recorded by the benchmark's own code around each
 * call into a library layer. They go through qpc's TraceSpan, so a
 * traced run (--trace 1) writes one Chrome/Perfetto trace-event file
 * holding both these spans and the spans the library already emits.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pulse/schedule.h"
#include "runtime/service.h"
#include "sim/pauli.h"
#include "telemetry/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** One benchmark invocation, as parsed from the command line. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** The qpc_serverd binary the wire workloads spawn. */
    std::string daemon;
    /** Directory for sockets and trace files (must exist). */
    std::string outDir = ".bench_out";
};

/** One named, unit-carrying metric value. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What one run reports. `failed` counts operations whose output the
 * checks rejected (refused or mismatched serves, blocks below the
 * GRAPE target, solves failing the variational check); `correct` is
 * false only when the checks themselves could not run to completion,
 * so a run never reports a number it did not verify.
 */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable context (sample counts, failed items), printed
     * before the JSON result line. */
    std::vector<std::string> notes;

    void add(const std::string& name, double value,
             const std::string& unit)
    {
        metrics.push_back({name, value, unit});
    }
    void note(const std::string& line) { notes.push_back(line); }
    /** Mark the run unverified, with the reason as a note. */
    void invalidate(const std::string& why);
};

/** Seconds elapsed since t0. */
double secondsSince(Clock::time_point t0);

/** Nanoseconds between two clock readings. */
double nsBetween(Clock::time_point t0, Clock::time_point t1);

/** Sleep briefly before a timed set-up (see SetupSampler). */
void idlePause();

/** Quantile q in [0,1] with linear interpolation between order
 * statistics (numpy's default); 0 for an empty sample. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * Run f() once inside a named layer span and return its wall time in
 * nanoseconds. The span is recorded only while tracing is enabled;
 * disabled it costs a few ns outside the timed interval.
 */
template <class F>
double
timedSpan(const char* span, F&& f)
{
    qpc::TraceSpan s(span);
    const Clock::time_point t0 = Clock::now();
    f();
    return nsBetween(t0, Clock::now());
}

/**
 * Set-up timings for setup_s, taken in bursts between a run's measured
 * operations. Each timed set-up starts after a short idle pause, as a
 * user's set-up does: back to back, the same work runs up to twice as
 * fast for a few hundred milliseconds and then slows as the host
 * throttles the busy core, so its median depended on where a burst
 * fell. After a pause it reads the same within a few percent.
 * Construction makes one untimed warm-up call: the first call in a
 * process pays page faults and lazy initialization that later calls
 * do not.
 */
template <class F>
class SetupSampler
{
  public:
    explicit SetupSampler(F setup) : setup_(std::move(setup)) { setup_(); }

    void burst(int reps)
    {
        for (int i = 0; i < reps; ++i) {
            idlePause();
            seconds_.push_back(timedSpan("bench.setup", setup_) / 1e9);
        }
    }

    double median() const { return perfbench::median(seconds_); }

  private:
    F setup_;
    std::vector<double> seconds_;
};

/**
 * 64-bit FNV-1a digest of a schedule's dt, shape and sample bits, with
 * -0.0 read as +0.0. Equal digests mean equal sample values. The sign
 * of a zero sample is not part of the pulse: the content-addressed
 * cache files the identity rotations Rx(0) and Rz(0) under one
 * fingerprint, so a served zero-angle pulse carries the sign of
 * whichever filled that entry first.
 */
std::uint64_t pulseDigest(const qpc::PulseSchedule& pulse,
                          std::uint64_t h = 14695981039346656037ull);

/** Derive an independent stream seed from the run seed. */
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * The end-to-end figures of an untraced run. Every workload reports
 * all of them for its own operation: a Serve round trip (wire), one
 * cold compile (grape_cold) or one VQE solve (vqe_adaptive).
 */
struct EndToEnd
{
    double setupS = 0.0;    ///< Median set-up before the first operation.
    double latencyMs = 0.0; ///< Median operation wall time.
    /** Work items completed per second of operation: serves, unique
     * blocks synthesized, or objective evaluations. */
    double throughputPerS = 0.0;
    /** Mean duration of the pulse program served for seeded bindings
     * of the workload's template. */
    double pulseNs = 0.0;
};

void addEndToEnd(RunResult& result, const EndToEnd& e);

/**
 * The per-layer figures of a traced run. Every workload reports all of
 * them; a share or count of a layer the workload does not use is 0.
 * The probe timings are taken on every workload (probeLayers).
 */
struct Layers
{
    /** p99 of the operation wall time over the run's untraced
     * operations. */
    double latencyP99Ms = 0.0;

    /** @name Probes (probeLayers)
     *  @{ */
    double prepareMs = 0.0;
    double fingerprintMs = 0.0;
    double serveP50Us = 0.0;
    double cacheGetP50Us = 0.0;
    double serializeUs = 0.0;
    double deserializeUs = 0.0;
    double simEvalUs = 0.0;
    double eigUsD4 = 0.0;
    double eigUsD8 = 0.0;
    double grapeIterUs2q = 0.0;
    double grapeIterUs3q = 0.0;
    /** @} */

    /** @name Shares of one operation's wall time (of its workers' time
     * for pooled work); unattributed_share is 1 minus their sum.
     *  @{ */
    double serverShare = 0.0;  ///< Daemon Serve handler outside the service.
    double runtimeShare = 0.0; ///< Inside CompileService::serve.
    double grapeShare = 0.0;   ///< GRAPE block synthesis.
    double decodeShare = 0.0;  ///< Client pulse-record decode.
    /** @} */
    /** Eigensolver share of GRAPE time (nested in grapeShare). */
    double eigShare = 0.0;
    /** Traced over untraced operation time, minus 1. */
    double traceOverheadShare = 0.0;

    /** @name Counts
     *  @{ */
    double quantMisses = 0.0;
    double cacheEvictions = 0.0;
    double grapeIterations = 0.0;
    double vqeEvaluations = 0.0;
    double optIterations = 0.0;
    double refineRounds = 0.0;
    double refineSynths = 0.0;
    double bytesReleased = 0.0;
    double replyBytes = 0.0;
    /** @} */
};

void addLayers(RunResult& result, const Layers& l);

/** What probeLayers measures on: the workload's own template, a warm
 * service and plan that serve it, and a Hamiltonian over its qubits. */
struct ProbeTarget
{
    std::function<qpc::Circuit()> buildTemplate;
    qpc::CompileServiceOptions options;
    qpc::CompileService* service = nullptr;
    const qpc::ServingPlan* plan = nullptr;
    const qpc::PauliHamiltonian* hamiltonian = nullptr;
    std::uint64_t seed = 1;
};

/** Median eigHermitian time, in microseconds, on slice Hamiltonians
 * of a width-q clique device with seeded controls. */
double eigMicros(int qubits, std::uint64_t seed);

/**
 * Time each layer alone, from outside, on the workload's inputs:
 * template build + strict partition (transpile), prepareServing
 * (fingerprinting), serve and PulseCache::get on the warm plan, pulse
 * record encode/decode of one served program, one energy evaluation
 * (sim), and fixed-size eigensolver and GRAPE-iteration probes that do
 * not depend on the workload. A failed probe invalidates the run.
 */
void probeLayers(const ProbeTarget& target, Layers& layers,
                 RunResult& result);

/** @name Workloads (one translation unit each)
 *  @{ */
RunResult runWireWorkload(const RunConfig& config, bool want_pulses);
RunResult runGrapeCold(const RunConfig& config);
RunResult runVqeAdaptive(const RunConfig& config);
/** @} */

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
