#include "runtime/hybridloop.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "common/logging.h"
#include "partial/strict.h"
#include "runtime/threadpool.h"
#include "sim/statevector.h"

namespace qpc {

double
runHybridLoop(const Circuit& circuit, const PauliHamiltonian& observable,
              const std::vector<double>& start,
              const HybridLoopOptions& options, HybridLoopResult& result)
{
    fatalIf(circuit.numQubits() != observable.numQubits(),
            "circuit width does not match the observable");

    // A shared service takes precedence; otherwise serviceOptions
    // spins up a run-owned one, so single-run callers get the full
    // resource-bounded serve path without managing a service object.
    std::unique_ptr<CompileService> owned;
    CompileService* service = options.compileService;
    if (!service && options.serviceOptions) {
        owned = std::make_unique<CompileService>(*options.serviceOptions);
        service = owned.get();
    }

    // With a compile service attached, pay the strict-partial
    // pre-compute once up front (block synthesis and the serving
    // plan's blocking/fingerprints); the loop below then serves each
    // binding from the warm cache.
    ServingPlan plan;
    if (service) {
        plan = options.quantization
                   ? service->prepareServing(strictPartition(circuit),
                                             *options.quantization)
                   : service->prepareServing(strictPartition(circuit));
        const BatchCompileReport precompute =
            service->precompilePlan(plan);
        result.precomputeWallSeconds = precompute.wallSeconds;
        result.precompiledBlocks = precompute.uniqueBlocks;
        if (options.prewarmQuantizedBins) {
            const BatchCompileReport prewarm =
                service->prewarmQuantizedBins(plan);
            result.precomputeWallSeconds += prewarm.wallSeconds;
        }
    }
    const bool quantized = service && plan.quantization().enabled;

    // Quantized serving delivers pulses for the *snapped* angles (the
    // current adaptive leaf representatives when the plan refines),
    // so that is what the simulated hardware must execute — the value
    // honestly carries the grid's substitution error.
    auto measure = [&](const std::vector<double>& theta) {
        StateVector state(circuit.numQubits());
        state.applyCircuit(
            quantized
                ? service->snapServedRotations(plan, circuit, theta)
                : circuit.bind(theta));
        return observable.expectation(state);
    };

    // With optimizerThreads the objective runs concurrently on pool
    // workers; the stats it accumulates are the only shared state, so
    // one mutex keeps them exact without serializing the evaluations.
    std::mutex stats_mu;
    auto objective = [&](const std::vector<double>& theta) {
        {
            std::lock_guard<std::mutex> lock(stats_mu);
            ++result.iterations;
        }
        if (service) {
            const ServedPulse served = service->serve(plan, theta);
            std::lock_guard<std::mutex> lock(stats_mu);
            result.servedCacheHits += served.cacheHits;
            result.servedCacheMisses += served.cacheMisses;
            result.quantHits += served.quantHits;
            result.quantMisses += served.quantMisses;
            result.quantFallbacks += served.quantFallbacks;
            result.maxQuantErrorBound = std::max(
                result.maxQuantErrorBound, served.quantErrorBound);
        }
        return measure(theta);
    };

    // Convergence-gated refinement: once the optimizer's step norm
    // falls to refineStepNorm — it has stopped leaping across the
    // landscape, where finer bins would be wasted on regions it never
    // revisits, and started homing in — split the grid bins it has
    // been visiting at most every refineCooldown iterations, so late
    // iterations serve finer representatives. onIteration runs on the
    // optimizer's thread, between evaluation batches.
    NelderMeadOptions optimizer = options.optimizer;
    if (quantized && plan.quantization().adaptive) {
        const ParamQuantization quant = plan.quantization();
        auto chained = std::move(optimizer.onIteration);
        int last_round = -quant.refineCooldown;
        optimizer.onIteration =
            [&, quant, chained,
             last_round](const NelderMeadIterationInfo& info) mutable {
                if (chained)
                    chained(info);
                if (quant.refineStepNorm > 0.0 &&
                    info.stepNorm > quant.refineStepNorm)
                    return;
                if (info.iteration - last_round < quant.refineCooldown)
                    return;
                last_round = info.iteration;
                const RefinementReport round =
                    service->refineQuantizedGrid(plan);
                if (round.leavesSplit == 0)
                    return;
                ++result.quantRefineRounds;
                result.quantSplits +=
                    static_cast<uint64_t>(round.leavesSplit);
                result.quantRefineSynths += round.synthRuns;
                result.quantBytesReleased += round.bytesReleased;
            };
    }

    // Run-owned evaluation pool: batches simplex evaluations without
    // changing any result bit (slot-ordered reduction in nelderMead).
    std::unique_ptr<ThreadPool> eval_pool;
    if (options.optimizerThreads > 0) {
        eval_pool =
            std::make_unique<ThreadPool>(options.optimizerThreads);
        optimizer.evalPool = eval_pool.get();
    }

    const NelderMeadResult opt = nelderMead(objective, start, optimizer);
    result.bestParams = opt.best;
    if (!quantized)
        return opt.bestValue;
    // The realized accuracy of the answer: what serving the best
    // parameters costs in snap error on the final grid. Refinement
    // may have split bestParams' leaves after their last evaluation,
    // so re-measure on the final topology too — the returned value
    // and the error bound must describe the *same* served pulses.
    result.finalQuantErrorBound =
        service->serve(plan, opt.best).quantErrorBound;
    return measure(opt.best);
}

} // namespace qpc
