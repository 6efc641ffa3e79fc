#include "dse/evaluator.hh"

#include <charconv>
#include <chrono>

#include "core/validate.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace dhdl::dse {

std::string
renderBinding(const Graph& g, const ParamBinding& b)
{
    std::string out;
    char buf[24];
    for (size_t i = 0; i < b.values.size(); ++i) {
        if (i)
            out += ' ';
        if (i < g.params().size()) {
            out += g.params()[ParamId(i)].name;
            out += '=';
        }
        out.append(buf,
                   std::to_chars(buf, buf + sizeof buf, b.values[i]).ptr);
    }
    return out;
}

void
markFailed(DesignPoint& p, const Diag& d)
{
    p.evaluated = true;
    p.failed = true;
    p.valid = false;
    p.failCode = d.code;
    p.failStage = d.stage;
    p.failReason = d.message;
}

std::shared_ptr<const DesignPlan>
Evaluator::tryCompile(const Graph& g, Diag* why) noexcept
{
    try {
        // Plan compilation assumes a well-formed graph (a root, legal
        // nesting); validation turns a broken one into an error.
        validateOrThrow(g);
        return std::make_shared<const DesignPlan>(g);
    } catch (...) {
        if (why)
            *why = diagFromCurrentException("plan");
        return nullptr;
    }
}

bool
Evaluator::batchable(const est::AreaEstimator& area,
                     const DesignPlan& plan, Diag* why)
{
    const est::AreaBatchPlan bp = area.makeBatchPlan(plan);
    if (!bp.ok() && why) {
        *why = Diag();
        why->code = DiagCode::AreaEstimationFailed;
        why->stage = "plan";
        why->message = bp.why();
    }
    return bp.ok();
}

Evaluator::Evaluator(const est::AreaEstimator& area,
                     const est::RuntimeEstimator& runtime,
                     const Graph& g,
                     std::shared_ptr<const DesignPlan> plan)
    : area_(area), runtime_(runtime), g_(&g), plan_(std::move(plan))
{
    invariant(plan_ != nullptr, "Evaluator needs a compiled plan");
    batchPlan_ = area_.makeBatchPlan(*plan_);
}

void
Evaluator::failPoint(DesignPoint& p, size_t idx, const char* stage,
                     DiagSink& sink)
{
    Diag d = diagFromCurrentException(stage);
    d.pointIndex = int64_t(idx);
    d.context = renderBinding(*g_, p.binding);
    d.worker = obs::threadName();
    markFailed(p, d);
    sink.report(std::move(d));
}

void
Evaluator::evaluateBatch(std::vector<DesignPoint>& points,
                         const size_t* idxs, size_t n, const Hook* hook,
                         DiagSink& sink)
{
    if (n == 0)
        return;
    invariant(batchPlan_.ok(),
              "evaluateBatch needs a plan the area model characterizes");

    // The stage clock runs only while obs recording is on.
    using Clock = std::chrono::steady_clock;
    const bool timed = obs::enabled();
    auto now = [timed] {
        return timed ? Clock::now() : Clock::time_point();
    };

    // Stage 1 — hook + instantiate: rebind one pool row per point.
    // Failing points are marked and excluded; survivors pack densely
    // into rows [0, live), remembering their point index.
    const auto t0 = now();
    liveIdx_.clear();
    for (size_t k = 0; k < n; ++k) {
        const size_t idx = idxs[k];
        DesignPoint& p = points[idx];
        const char* stage = "instantiate";
        try {
            if (hook && *hook) {
                stage = "pre-evaluate";
                (*hook)(p.binding, idx);
            }
            stage = "instantiate";
            pool_.assign(liveIdx_.size(), *plan_, p.binding);
            liveIdx_.push_back(idx);
        } catch (...) {
            failPoint(p, idx, stage, sink);
        }
    }
    const size_t live = liveIdx_.size();

    // Stage 2 — area: the fused slot-outer kernel over the whole
    // batch. The kernel is straight-line arithmetic; anything it
    // could throw (a broken plan invariant) fails every live point
    // at the area stage.
    const auto t1 = now();
    try {
        areaOut_.resize(live);
        area_.estimateBatch(batchPlan_, pool_, live, bws_,
                            areaOut_.data());
    } catch (...) {
        for (size_t r = 0; r < live; ++r)
            failPoint(points[liveIdx_[r]], liveIdx_[r], "area", sink);
        return;
    }
    for (size_t r = 0; r < live; ++r)
        points[liveIdx_[r]].area = areaOut_[r];

    // Stage 3 — runtime: the cycle model recurses over the controller
    // hierarchy, so points run one at a time inside the batch clock;
    // a throwing point fails (keeping the area estimate it already
    // earned) and drops from validate.
    const auto t2 = now();
    rowFailed_.assign(live, 0);
    for (size_t r = 0; r < live; ++r) {
        DesignPoint& p = points[liveIdx_[r]];
        try {
            p.cycles = runtime_.estimate(pool_[r]).cycles;
        } catch (...) {
            failPoint(p, liveIdx_[r], "runtime", sink);
            rowFailed_[r] = 1;
        }
    }

    // Stage 4 — validate: pure comparisons across the batch.
    const auto t3 = now();
    for (size_t r = 0; r < live; ++r) {
        if (rowFailed_[r])
            continue;
        DesignPoint& p = points[liveIdx_[r]];
        p.valid = p.area.fits(area_.device());
        p.evaluated = true;
    }
    if (!timed)
        return;
    const auto t4 = now();

    // One counter add and one span per stage per batch (spans tagged
    // with the batch's first point): the trace stays readable at
    // batched throughput and the clock reads amortize over the batch.
    // Purely additive — no effect on the points, so golden outputs
    // are identical with tracing on or off.
    static const obs::Counter cInst("dse.stage.instantiate.us");
    static const obs::Counter cArea("dse.stage.area.us");
    static const obs::Counter cRt("dse.stage.runtime.us");
    static const obs::Counter cVal("dse.stage.validate.us");
    static const obs::Histogram batchLatency(
        "dse.eval.batch.us",
        {4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536});
    const uint64_t u0 = obs::toMicros(t0);
    const uint64_t u1 = obs::toMicros(t1);
    const uint64_t u2 = obs::toMicros(t2);
    const uint64_t u3 = obs::toMicros(t3);
    const uint64_t u4 = obs::toMicros(t4);
    cInst.add(u1 - u0);
    cArea.add(u2 - u1);
    cRt.add(u3 - u2);
    cVal.add(u4 - u3);
    const int64_t i = int64_t(idxs[0]);
    obs::recordSpan("dse", "instantiate", u0, u1 - u0, i);
    obs::recordSpan("dse", "area", u1, u2 - u1, i);
    obs::recordSpan("dse", "runtime", u2, u3 - u2, i);
    obs::recordSpan("dse", "validate", u3, u4 - u3, i);
    batchLatency.observe(u4 - u0);
}

} // namespace dhdl::dse
