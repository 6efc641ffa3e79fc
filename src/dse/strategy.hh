/**
 * @file
 * Pluggable search strategies for the round-based exploration driver
 * (dse/driver.hh). A strategy decides *which* candidates of the
 * global sample set to spend evaluation budget on; the driver owns
 * everything else (evaluation, checkpointing, budgets, the
 * incremental Pareto front).
 *
 * Contract per round r:
 *
 *  - propose(r, pool, budget, front, out, rs) appends up to `budget`
 *    indices drawn from `pool` (the un-evaluated, in-shard candidate
 *    indices, ascending) to `out`. An empty proposal ends the search.
 *  - after evaluating the proposal, the driver calls
 *    observe(r, points, proposed) with every proposed index, so the
 *    strategy can learn from the new results.
 *
 * Strategies are deterministic: same config + same pool ⇒ same
 * proposals, which keeps checkpoint/resume and the golden suites
 * meaningful. RandomStrategy proposes the entire pool in sample
 * order in round 0 — the historical one-shot sweep, bit-identical.
 */

#ifndef DHDL_DSE_STRATEGY_HH
#define DHDL_DSE_STRATEGY_HH

#include <array>
#include <map>
#include <memory>

#include "dse/explorer.hh"
#include "dse/features.hh"
#include "dse/pareto.hh"
#include "ml/serialize.hh"

namespace dhdl::dse {

/** One search strategy instance, owned by a single driver run. */
class SearchStrategy
{
  public:
    virtual ~SearchStrategy() = default;

    /** Stable name ("random", "surrogate") for checkpoints and obs. */
    virtual const char* name() const = 0;

    /**
     * Append up to `budget` candidate indices from `pool` to `out`
     * for round `round`. `front` is the current incremental Pareto
     * front over everything evaluated so far. Strategy-internal
     * timing (model refit, pool ranking) is reported on `rs`.
     */
    virtual void propose(int round, const std::vector<size_t>& pool,
                         size_t budget, const ParetoFront& front,
                         std::vector<size_t>& out, RoundStats& rs) = 0;

    /**
     * Digest the round's results: `proposed` are the indices handed
     * back by propose(); points[i].evaluated says whether a budget
     * cut one short.
     */
    virtual void observe(int round,
                         const std::vector<DesignPoint>& points,
                         const std::vector<size_t>& proposed) = 0;

    /** End-of-run hook (e.g. persist the trained model); diagnostics
     *  go to `sink`. */
    virtual void finish(DiagSink& sink) { (void)sink; }
};

/** The historical sweep: everything, in sample order, in one round. */
class RandomStrategy final : public SearchStrategy
{
  public:
    const char* name() const override { return "random"; }

    void propose(int round, const std::vector<size_t>& pool,
                 size_t budget, const ParetoFront& front,
                 std::vector<size_t>& out, RoundStats& rs) override;

    void observe(int, const std::vector<DesignPoint>&,
                 const std::vector<size_t>&) override {}
};

/**
 * Surrogate-guided active search. Round 0 evaluates a random seed
 * slice; each later round refits one model per objective
 * (log2(1+alms), log2(1+cycles)) on every evaluated point, scores
 * the remaining pool by predicted dominance distance to the current
 * front, and proposes the best slice (plus an ε-greedy random floor)
 * at a geometrically growing round size.
 */
class SurrogateStrategy final : public SearchStrategy
{
  public:
    /**
     * `fx` extracts candidate features; `points` is the driver's
     * point array (bindings already populated), borrowed for feature
     * extraction during ranking. `space` must outlive the strategy
     * (it backs the parameter-neighborhood slice). `seed` drives the
     * ε-greedy picks.
     */
    SurrogateStrategy(const SurrogateConfig& cfg, uint64_t seed,
                      const ParamSpace& space, FeatureExtractor fx,
                      const std::vector<DesignPoint>& points);

    const char* name() const override { return "surrogate"; }

    void propose(int round, const std::vector<size_t>& pool,
                 size_t budget, const ParetoFront& front,
                 std::vector<size_t>& out, RoundStats& rs) override;

    void observe(int round, const std::vector<DesignPoint>& points,
                 const std::vector<size_t>& proposed) override;

    void finish(DiagSink& sink) override;

    /**
     * Warm-start from a saved bundle (ml::loadSurrogateBundle). A
     * damaged file or one whose feature arity does not match this
     * design degrades to the untrained state with a warning on
     * `sink`; the strategy still runs.
     */
    void loadModel(const std::string& path, DiagSink& sink);

    /** Rows currently in the training set (tests/bench). */
    size_t trainingRows() const { return trainX_.size(); }

    /** The current fitted bundle; empty scalers before first fit. */
    const ml::SurrogateBundle& bundle() const { return bundle_; }

  private:
    /** Refit scalers + models on the accumulated rows. */
    void train(RoundStats& rs);

    /** Predicted scaled (target-space) objectives of one binding;
     *  optionally also the L1 disagreement between the two model
     *  families (0 when only one is fitted). */
    void predictScaled(const ParamBinding& b, double out[2],
                       double* disagreement = nullptr);

    SurrogateConfig cfg_;
    const ParamSpace& space_;
    FeatureExtractor fx_;
    const std::vector<DesignPoint>& points_;
    /** Sampled binding -> index into points_, for neighbor lookups.
     *  std::map keeps iteration deterministic. */
    std::map<std::vector<int64_t>, size_t> bindingToIdx_;
    uint64_t seed_;
    ml::Rng rng_;
    ml::SurrogateBundle bundle_;
    /** Per-target Mlp committee (odd seed count); predictions take
     *  the median, which removes initialization-luck outliers. The
     *  first member is mirrored into bundle_ for persistence. */
    std::array<std::vector<ml::Mlp>, 2> committee_;
    bool fitted_ = false; //!< bundle_ holds usable models.
    bool dirty_ = false;  //!< new rows since the last fit.

    std::vector<std::vector<double>> trainX_;
    /** Per-row targets: [log2(1+alms), log2(1+cycles)]. */
    std::vector<std::vector<double>> trainY_;

    // Ranking scratch, reused across rounds.
    std::vector<double> feat_;
    std::vector<double> scaled_;
    ml::MlpWorkspace mlpWs_;
    std::vector<std::pair<double, size_t>> scores_;
    std::vector<std::array<double, 2>> preds_;

    /** How the two model families combine into one prediction;
     *  re-selected at every refit on a time-ordered holdout. */
    enum class Blend { Average, MlpOnly, LinearOnly };
    Blend blend_ = Blend::Average;
};

/**
 * Instantiate the strategy selected by `cfg`. For the surrogate this
 * compiles the feature extractor from (space, plan) and, when
 * cfg.surrogate.loadModelPath is set, warm-starts from the saved
 * bundle (a damaged or mismatched file degrades to an untrained
 * strategy with a warning on `sink`).
 */
std::unique_ptr<SearchStrategy>
makeStrategy(const ExploreConfig& cfg, const ParamSpace& space,
             const DesignPlan& plan,
             const std::vector<DesignPoint>& points, DiagSink& sink);

} // namespace dhdl::dse

#endif // DHDL_DSE_STRATEGY_HH
