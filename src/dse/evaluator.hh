/**
 * @file
 * Staged design-point evaluation. The Evaluator owns everything one
 * evaluating thread needs to score bindings of a single graph:
 *
 *  - the shared, compile-once DesignPlan (binding-invariant analysis)
 *    and its batched area plan;
 *  - a pool of Inst rows, rebound per point without reallocation;
 *  - the batched estimator scratch.
 *
 * Evaluation runs in batches as a fixed pipeline — pre-evaluate hook
 * → instantiate → area → runtime → validate — with a wall-clock
 * counter per stage, surfaced by `dhdlc explore --profile`. Any stage
 * exception becomes a structured diagnostic naming the stage, on the
 * failing point only: the explorer's isolation boundary.
 *
 * A graph that cannot be evaluated at all (it fails validation or
 * plan compilation, or uses a template class the area model never
 * characterized) is refused before any point is evaluated:
 * tryCompile() and batchable() say why.
 */

#ifndef DHDL_DSE_EVALUATOR_HH
#define DHDL_DSE_EVALUATOR_HH

#include <functional>
#include <memory>
#include <string>

#include "analysis/instance.hh"
#include "core/diag.hh"
#include "estimate/area_estimator.hh"
#include "estimate/runtime_estimator.hh"

namespace dhdl::dse {

/** One evaluated design point. */
struct DesignPoint {
    ParamBinding binding;
    est::AreaEstimate area;
    double cycles = 0;
    bool valid = false; //!< Fits every device resource capacity.
    /** The point went through evaluation (false = budget-skipped). */
    bool evaluated = false;
    /** Search round that evaluated the point (-1 = unknown, e.g.
     *  restored from a strategy-less checkpoint). Serialized only by
     *  non-random strategies, so historical checkpoints stay
     *  byte-identical. */
    int32_t round = -1;
    /** Evaluation threw; failCode/failStage/failReason say why. */
    bool failed = false;
    DiagCode failCode = DiagCode::Ok;
    /** Pipeline stage that threw ("area", ...); empty when !failed.
     *  Persisted in checkpoints so a restored failure re-surfaces
     *  the identical diagnostic a live run would have produced. */
    std::string failStage;
    std::string failReason;
};

/** Render a binding as "name=value ..." for diagnostic context. */
std::string renderBinding(const Graph& g, const ParamBinding& b);

/** Mark `p` failed (evaluated, not valid) with `d`'s code, stage and
 *  message. */
void markFailed(DesignPoint& p, const Diag& d);

/**
 * Per-thread batched evaluation pipeline over one graph. Not
 * thread-safe: parallel sweeps construct one Evaluator per worker,
 * all sharing the same compiled plan.
 */
class Evaluator
{
  public:
    using Hook = std::function<void(const ParamBinding&, size_t)>;

    /** Share a pre-compiled, non-null plan; evaluateBatch() needs it
     *  batchable() by `area`. */
    Evaluator(const est::AreaEstimator& area,
              const est::RuntimeEstimator& runtime, const Graph& g,
              std::shared_ptr<const DesignPlan> plan);

    /**
     * Validate the graph and compile its plan. Never throws: on
     * failure returns null and, when `why` is given, fills it with
     * the error (stage "plan", pointIndex -1).
     */
    static std::shared_ptr<const DesignPlan>
    tryCompile(const Graph& g, Diag* why = nullptr) noexcept;

    /**
     * True when `area` characterizes every template class `plan`
     * uses, the precondition of evaluateBatch(); otherwise false
     * with the missing class in `why` (stage "plan", pointIndex -1).
     */
    static bool batchable(const est::AreaEstimator& area,
                          const DesignPlan& plan, Diag* why = nullptr);

    /**
     * Evaluate the n points points[idxs[0..n)] as one batch:
     * structure-of-arrays instantiation against the shared plan, the
     * batched area kernel, then per-point runtime and a batched
     * validate. Batching reorders work across points, never within a
     * point's arithmetic, so every value is the same at any batch
     * size; a batch of one is the scalar case. `hook` (may be null)
     * runs per point before instantiation. A point whose hook,
     * instantiation, area or runtime stage throws is marked failed
     * (stage-tagged, with the binding as context), reported to
     * `sink`, and drops out of the remaining stages; the rest of the
     * batch proceeds. With obs recording on, each stage's wall time
     * is added to the `dse.stage.<stage>.us` counters.
     */
    void evaluateBatch(std::vector<DesignPoint>& points,
                       const size_t* idxs, size_t n, const Hook* hook,
                       DiagSink& sink);

  private:
    /** Mark `p` failed from the in-flight exception and report the
     *  diagnostic. */
    void failPoint(DesignPoint& p, size_t idx, const char* stage,
                   DiagSink& sink);

    const est::AreaEstimator& area_;
    const est::RuntimeEstimator& runtime_;
    const Graph* g_;
    std::shared_ptr<const DesignPlan> plan_;
    est::AreaBatchPlan batchPlan_;

    // Scratch, all reused across batches.
    InstPool pool_;            //!< Rebind-reusing instance rows.
    est::AreaBatchWorkspace bws_;
    std::vector<est::AreaEstimate> areaOut_;
    std::vector<size_t> liveIdx_;  //!< Point index per pool row.
    std::vector<char> rowFailed_;  //!< Runtime-stage failures.
};

} // namespace dhdl::dse

#endif // DHDL_DSE_EVALUATOR_HH
