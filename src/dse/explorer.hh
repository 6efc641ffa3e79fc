/**
 * @file
 * The design space explorer (Steps 2-4 of Figure 1): randomly sample
 * the legal parameter space, estimate area and runtime for each
 * point with the calibrated estimators, mark points that exceed any
 * device capacity as invalid, and extract the Pareto frontier over
 * (execution cycles, ALM usage).
 *
 * Robustness model: a paper-scale sweep evaluates up to 75,000
 * points, so a single bad point must never abort the run. Every
 * point is evaluated inside an isolation boundary — an exception
 * from instantiation or either estimator is converted into a
 * structured diagnostic (core/diag.hh) and recorded on the point
 * itself; exploration continues. The explorer additionally supports:
 *
 *  - wall-clock and evaluation-count budgets with graceful early
 *    termination (un-evaluated points are reported, not silently
 *    dropped);
 *  - periodic checkpointing of completed points to a CSV file, and
 *    resume-from-checkpoint for interrupted sweeps;
 *  - parallel evaluation over cpu::ThreadPool with deterministic
 *    output: without a time budget, results are identical for any
 *    thread count (points are written to pre-assigned slots and
 *    diagnostics are sorted by point index).
 */

#ifndef DHDL_DSE_EXPLORER_HH
#define DHDL_DSE_EXPLORER_HH

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/diag.hh"
#include "dse/evaluator.hh"
#include "dse/pareto.hh"
#include "dse/space.hh"

namespace dhdl::dse {

/** Selection of the round-based search strategy (dse/strategy.hh). */
enum class StrategyKind : uint8_t {
    /** One round proposing the whole pool in sample order — exactly
     *  the historical sample-everything-then-evaluate sweep. */
    Random,
    /** Surrogate-guided active search: train ml models on evaluated
     *  points between rounds, rank the remaining pool by predicted
     *  Pareto-dominance distance, spend the budget on the top slice
     *  with an ε-greedy floor and geometrically growing rounds. */
    Surrogate,
};

/** Stable CLI/checkpoint name of a strategy ("random", ...). */
const char* strategyName(StrategyKind k);

/** Knobs of the surrogate strategy (ignored by Random). */
struct SurrogateConfig {
    /** Random seed points evaluated in round 0 (the first training
     *  set); also the base of the geometric round-size schedule.
     *  0 = auto: four points per design parameter, clamped to
     *  [8, 16] — small spaces get a cheap cold start, larger ones
     *  enough rows for a stable first fit. */
    int initialPoints = 0;
    /** ε-greedy floor: fraction of every guided round spent on
     *  uniform-random picks so the model never starves of coverage. */
    double epsilon = 0.1;
    /** Successive round-size growth factor: round r proposes about
     *  initialPoints * roundGrowth^r points (successive-halving in
     *  reverse — cheap rounds while the model is weak, bigger
     *  commitments as it sharpens). Slow growth buys more refits
     *  per evaluation, which measures strictly better on the
     *  evals-to-front metric; the extra propose() overhead is model
     *  compute, not evaluation budget. */
    double roundGrowth = 1.25;
    /** Hard cap on guided rounds; 0 = until pool/budget exhausted. */
    int maxRounds = 0;
    /** RPROP epochs per model refit between rounds. */
    int trainEpochs = 200;
    /** Train Mlps ({nf, 8, 1}) once enough rows exist; a ridge
     *  LinearModel handles the small-sample rounds either way. */
    bool useMlp = true;
    /** Warm-start from a saved surrogate bundle (ml/serialize). */
    std::string loadModelPath;
    /** Persist the final trained bundle for later runs. */
    std::string saveModelPath;
};

struct RoundStats;

/** Exploration configuration. */
struct ExploreConfig {
    /** Points sampled from the legal space (paper: up to 75,000). */
    int maxPoints = 75000;
    uint64_t seed = 0xD5Eull;

    /** Worker threads for point evaluation; <=1 evaluates inline. */
    int threads = 1;

    /**
     * Points handed to each Evaluator::evaluateBatch call (values
     * below 1 mean 1). Batching never changes a result bit — it only
     * restructures the work into structure-of-arrays kernels — so
     * this is purely a throughput setting. Batches nest inside
     * checkpoint slices and per-worker ranges, so checkpoint cadence
     * and sharding are unaffected.
     */
    int batchSize = 64;

    /** Wall-clock budget in seconds; 0 = unlimited. */
    double timeBudgetSeconds = 0;

    /**
     * Maximum points to evaluate in this call; 0 = unlimited. The
     * remainder is left un-evaluated (and picked up by a later
     * resume when checkpointing is on).
     */
    int64_t evalBudget = 0;

    /** Non-empty enables checkpointing to this file. */
    std::string checkpointPath;

    /** Evaluations between checkpoint writes. */
    int64_t checkpointEvery = 1000;

    /**
     * Deterministic shard assignment: this call evaluates only the
     * sample-set indices congruent to shardIndex modulo shardCount.
     * Every shard of the same (design, seed, maxPoints) derives the
     * identical global sample set, so any assignment of shards to
     * processes reproduces the same points and
     * dse::mergeShards() reassembles the exact unsharded result.
     * The default 0/1 is the unsharded run.
     */
    int shardIndex = 0;
    int shardCount = 1;

    /**
     * Restore previously evaluated points from checkpointPath before
     * evaluating; a missing or mismatched file (different seed,
     * sample count or parameter count) is reported as a warning and
     * ignored.
     */
    bool resume = false;

    /**
     * Test/instrumentation seam, called with (binding, point index)
     * inside the isolation boundary before each evaluation. Used by
     * the fault-injection tests; an exception thrown here fails only
     * that point.
     */
    std::function<void(const ParamBinding&, size_t)> preEvaluate;

    /** Round-based search strategy; Random reproduces the historical
     *  one-shot sweep bit-identically. */
    StrategyKind strategy = StrategyKind::Random;
    SurrogateConfig surrogate;

    /**
     * Precompiled DesignPlan to share (the serving layer's
     * content-addressed plan cache hands one out per cached design).
     * When set, the driver skips plan compilation entirely — no
     * plan-compile span is recorded and stats.planSeconds stays 0 —
     * and every worker evaluator binds against this plan. Must have
     * been compiled from a graph whose canonical IR equals this run's
     * graph; the plan cache keys by exactly that hash.
     */
    std::shared_ptr<const DesignPlan> plan;

    /**
     * Streaming hook, called on the exploring thread after each
     * search round completes (results folded in, front updated) with
     * the round's stats, the incremental front so far, and the full
     * point vector. The serving layer forwards these as incremental
     * Pareto updates to clients. Never called concurrently.
     */
    std::function<void(const RoundStats&, const ParetoFront&,
                       const std::vector<DesignPoint>&)>
        onRound;

    /**
     * Cooperative cancel: when set and it becomes true, the run stops
     * at the next batch boundary exactly like an expired wall clock —
     * remaining points are skipped (and later resumable), a Cancelled
     * warning Diag is reported, and stats.cancelled is set.
     */
    std::shared_ptr<const std::atomic<bool>> cancel;
};

/** Per-round accounting of the search driver. */
struct RoundStats {
    int round = 0;
    size_t poolBefore = 0; //!< Un-evaluated candidates before round.
    size_t proposed = 0;   //!< Points the strategy proposed.
    size_t evaluated = 0;  //!< Points actually evaluated (budgets).
    size_t frontSize = 0;  //!< Incremental Pareto front after round.
    double proposeSeconds = 0; //!< propose() incl. train + rank.
    double trainSeconds = 0;   //!< Surrogate refit inside propose().
    double rankSeconds = 0;    //!< Pool scoring inside propose().
    double evalSeconds = 0;    //!< Evaluation slice loop.
    /** Indices evaluated this round, in evaluation order (the
     *  strategy's ranked proposal order). Lets quality benches
     *  measure evals-to-front at single-evaluation granularity
     *  instead of round granularity. */
    std::vector<size_t> evalOrder;
};

/** Aggregate counters for one explore() call. */
struct ExploreStats {
    /** Points asked of the sampler (cfg.maxPoints). When the legal
     *  space is smaller, total < requested — recorded so no sweep
     *  silently caps its sample set. */
    size_t requested = 0;
    size_t total = 0;     //!< Points sampled from the space.
    size_t evaluated = 0; //!< Points evaluated (incl. restored).
    size_t resumed = 0;   //!< Points restored from a checkpoint.
    size_t failed = 0;    //!< Points whose evaluation threw.
    size_t valid = 0;     //!< Points that fit the device.
    size_t skipped = 0;   //!< Points dropped by a budget.
    size_t notInShard = 0; //!< Points owned by other shards.
    size_t ckptTruncated = 0; //!< Torn-tail records dropped on resume.
    size_t ckptCorrupt = 0;   //!< Corrupt records skipped on resume.
    bool timeBudgetHit = false;
    bool evalBudgetHit = false;
    bool cancelled = false; //!< Stopped by ExploreConfig::cancel.
    double seconds = 0;   //!< Wall-clock of this explore() call.
    /** Wall-clock of the one-time DesignPlan compilation. */
    double planSeconds = 0;
    /** One entry per search round, in order. */
    std::vector<RoundStats> rounds;
};

/** Exploration output: all evaluated points + the Pareto front. */
struct ExploreResult {
    std::vector<DesignPoint> points;
    /** Indices of Pareto-optimal valid points (cycles vs ALMs). */
    std::vector<size_t> pareto;
    /** Per-point failures and run-level warnings, by point index. */
    std::vector<Diag> diags;
    ExploreStats stats;

    /** The valid point with the fewest cycles; nullopt when none. */
    std::optional<size_t> bestIndex() const;

    /** Most frequent failure reasons, aggregated from diags. */
    std::vector<std::pair<std::string, size_t>>
    failureSummary(size_t top = 5) const;
};

/**
 * DSE driver bound to calibrated estimators. All point evaluation —
 * one-off or sweep — routes through Evaluator::evaluateBatch (a
 * one-off point is a batch of one); explore() compiles the graph's
 * DesignPlan once and shares it across worker evaluators.
 */
class Explorer
{
  public:
    Explorer(const est::AreaEstimator& area,
             const est::RuntimeEstimator& runtime)
        : area_(area), runtime_(runtime) {}

    /** Evaluate a single binding; throws on a bad point. */
    DesignPoint evaluate(const Graph& g, ParamBinding b) const;

    /**
     * Evaluate a single binding inside the isolation boundary: never
     * throws, returns error status and marks the point failed when
     * evaluation raises or the graph cannot be evaluated at all
     * (stage "plan").
     */
    Status evaluateGuarded(const Graph& g, DesignPoint& p) const;

    /** Sample and evaluate the design space of a graph. */
    ExploreResult explore(const Graph& g,
                          const ExploreConfig& cfg = {}) const;

  private:
    const est::AreaEstimator& area_;
    const est::RuntimeEstimator& runtime_;
};

/**
 * The deterministic global sample set explore() evaluates for this
 * configuration: exhaustively enumerated when the pruned space fits
 * in cfg.maxPoints, randomly sampled per cfg.seed otherwise. Shard
 * runs and shard merge derive the identical set from the identical
 * config — the foundation of merge ≡ unsharded byte-identity. A
 * sampling shortfall is reported on `sink` (when given) so explore()
 * and mergeShards() surface the identical warning.
 */
std::vector<ParamBinding> sampleGlobal(const ParamSpace& space,
                                       const ExploreConfig& cfg,
                                       DiagSink* sink = nullptr);

/**
 * Canonical diagnostic order (pointIndex, stage, message): results
 * are identical for any thread count and for merged shard runs.
 */
void sortDiags(std::vector<Diag>& diags);

/** Pareto front (cycles vs ALMs) over the valid points, by index. */
std::vector<size_t> paretoOf(const std::vector<DesignPoint>& points);

} // namespace dhdl::dse

#endif // DHDL_DSE_EXPLORER_HH
