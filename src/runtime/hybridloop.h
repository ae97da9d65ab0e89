/**
 * @file
 * The hybrid variational loop of Figure 1, shared by VQE and QAOA.
 *
 * Both algorithms are one template: a parametrized circuit, an
 * observable, and a classical optimizer. Each objective evaluation
 * binds the parameters, serves the pulse program (when a compile
 * service is attached), runs the circuit on the state-vector
 * simulator standing in for hardware, and measures the observable;
 * Nelder-Mead proposes the next parameters. runVqe and runQaoa only
 * build the start point and their problem-specific report.
 */

#ifndef QPC_RUNTIME_HYBRIDLOOP_H
#define QPC_RUNTIME_HYBRIDLOOP_H

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/quantize.h"
#include "ir/circuit.h"
#include "opt/neldermead.h"
#include "runtime/service.h"
#include "sim/pauli.h"

namespace qpc {

/** Configuration shared by every hybrid-loop run. */
struct HybridLoopOptions
{
    NelderMeadOptions optimizer; ///< Classical-loop settings.
    /**
     * Workers for batched objective evaluation inside Nelder-Mead
     * (initial simplex, speculative reflection/expansion, shrinks).
     * 0 evaluates serially on the calling thread. Every positive
     * count produces bit-identical results to every other — the batch
     * layer reduces in slot order — so among pooled runs this is
     * purely a wall-clock knob. Serial additionally skips the
     * speculative expansion evaluation, which a side-effecting
     * objective (e.g. adaptive-quantization visit counters) can
     * observe; with a pure objective serial matches too.
     * Overrides optimizer.evalPool with a run-owned pool.
     */
    int optimizerThreads = 0;
    uint64_t seed = 0; ///< Start-point seed (used by the wrappers).
    /**
     * Optional compilation service. When set, the loop pre-compiles
     * the circuit's Fixed blocks through the service before the first
     * evaluation, then serves every iteration's pulse program by
     * lookup-and-concatenate — the paper's strict-partial serving
     * path. Null keeps the simulator-only behaviour.
     */
    CompileService* compileService = nullptr;
    /**
     * Alternative to compileService for single-run callers: when set
     * (and compileService is null), the loop constructs a private
     * CompileService with these options for the run — the full knob
     * surface (worker count, cache capacity/capacityBytes, disk tier
     * + maxDiskBytes GC, maxQueuedJobs backpressure, quantization)
     * without managing a service object.
     */
    std::optional<CompileServiceOptions> serviceOptions;
    /**
     * Per-run override of the service's angle quantization (see
     * ParamQuantization): unset inherits the service default, set
     * forces it on or off for this run. When quantization is in
     * effect, the simulated "hardware" executes the *snapped* angles
     * — the circuit the cached pulses actually realize — so the
     * reported value reflects the quantization error honestly. No
     * effect without a compile service.
     */
    std::optional<ParamQuantization> quantization;
    /**
     * Pre-warm the whole rotation grid through the service's worker
     * pool before the loop, so even the first iterations serve warm
     * (only meaningful with quantization enabled).
     */
    bool prewarmQuantizedBins = false;
};

/** Accounting shared by every hybrid-loop run. */
struct HybridLoopResult
{
    std::vector<double> bestParams;
    int iterations = 0; ///< Objective evaluations.

    /** @name Compile-service accounting (zero without a service)
     *  @{ */
    double precomputeWallSeconds = 0.0; ///< One-off block synthesis.
    int precompiledBlocks = 0;      ///< Unique Fixed blocks compiled.
    uint64_t servedCacheHits = 0;   ///< Warm lookups across the loop.
    uint64_t servedCacheMisses = 0; ///< Cold blocks hit at runtime.
    /** @} */

    /** @name Quantized-serving accounting (zero when disabled)
     *  @{ */
    uint64_t quantHits = 0;       ///< Rotation bins served warm.
    uint64_t quantMisses = 0;     ///< First touches of a bin.
    uint64_t quantFallbacks = 0;  ///< Budget-exceeded exact serves.
    /** Largest per-iteration summed snap error bound observed. */
    double maxQuantErrorBound = 0.0;
    /** @} */

    /** @name Adaptive-grid refinement (zero unless
     *  quantization.adaptive; see CompileService::refineQuantizedGrid)
     *  @{ */
    int quantRefineRounds = 0;    ///< Refinement rounds that split at
                                  ///< least one leaf.
    uint64_t quantSplits = 0;     ///< Leaves split across the run.
    uint64_t quantRefineSynths = 0; ///< Child-bin pulses the rounds
                                    ///< pre-warmed.
    uint64_t quantBytesReleased = 0; ///< Stale coarse bytes returned
                                     ///< to the cache byte budget.
    /**
     * Realized summed snap-error bound of serving bestParams on the
     * final grid — the answer's accuracy, which adaptive refinement
     * drives below the fixed grid's. Zero when quantization is off.
     */
    double finalQuantErrorBound = 0.0;
    /** @} */
};

/**
 * Minimize <observable> over the circuit's parameters from `start`.
 * Fills `result` and returns the lowest value found; under
 * quantization that value is re-measured on the final grid, so it
 * describes the same served pulses as finalQuantErrorBound. With an
 * adaptive plan, once the optimizer's step norm falls to
 * ParamQuantization::refineStepNorm the loop refines the grid at most
 * every refineCooldown iterations. Fatal when the circuit and the
 * observable differ in width.
 */
double runHybridLoop(const Circuit& circuit,
                     const PauliHamiltonian& observable,
                     const std::vector<double>& start,
                     const HybridLoopOptions& options,
                     HybridLoopResult& result);

} // namespace qpc

#endif // QPC_RUNTIME_HYBRIDLOOP_H
