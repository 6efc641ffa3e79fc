#include "dse/explorer.hh"

#include <algorithm>

#include "dse/driver.hh"

namespace dhdl::dse {

std::vector<ParamBinding>
sampleGlobal(const ParamSpace& space, const ExploreConfig& cfg,
             DiagSink* sink)
{
    // Small pruned spaces are walked exhaustively; larger ones are
    // randomly sampled (the paper samples up to 75,000 legal points).
    // Either path is deterministic per seed, which checkpoint/resume,
    // shard merge and the thread-count invariance all rely on.
    return space.sizeEstimate() <= double(cfg.maxPoints)
               ? space.enumerate(cfg.maxPoints)
               : space.sample(cfg.maxPoints, cfg.seed, sink);
}

void
sortDiags(std::vector<Diag>& diags)
{
    std::sort(diags.begin(), diags.end(),
              [](const Diag& a, const Diag& b) {
                  if (a.pointIndex != b.pointIndex)
                      return a.pointIndex < b.pointIndex;
                  if (a.stage != b.stage)
                      return a.stage < b.stage;
                  return a.message < b.message;
              });
}

std::vector<size_t>
paretoOf(const std::vector<DesignPoint>& points)
{
    // The valid points keep their relative order, so the kernel's
    // index tie-break is the global one.
    std::vector<size_t> valid;
    std::vector<double> xs, ys;
    for (size_t i = 0; i < points.size(); ++i) {
        if (points[i].valid) {
            valid.push_back(i);
            xs.push_back(points[i].area.alms);
            ys.push_back(double(points[i].cycles));
        }
    }
    std::vector<size_t> front = paretoFront(xs, ys);
    for (size_t& i : front)
        i = valid[i];
    return front;
}

std::optional<size_t>
ExploreResult::bestIndex() const
{
    std::optional<size_t> best;
    for (size_t i = 0; i < points.size(); ++i) {
        if (!points[i].valid)
            continue;
        if (!best || points[i].cycles < points[*best].cycles)
            best = i;
    }
    return best;
}

std::vector<std::pair<std::string, size_t>>
ExploreResult::failureSummary(size_t top) const
{
    return topReasons(diags, top);
}

DesignPoint
Explorer::evaluate(const Graph& g, ParamBinding b) const
{
    DesignPoint p;
    p.binding = std::move(b);
    Status s = evaluateGuarded(g, p);
    if (!s.ok())
        fatal(s.diag().message, s.diag().code);
    return p;
}

Status
Explorer::evaluateGuarded(const Graph& g, DesignPoint& p) const
{
    Diag why;
    auto plan = Evaluator::tryCompile(g, &why);
    if (!plan || !Evaluator::batchable(area_, *plan, &why)) {
        markFailed(p, why);
        return Status::error(std::move(why));
    }
    std::vector<DesignPoint> one;
    one.push_back(std::move(p));
    const size_t idx = 0;
    DiagSink sink;
    Evaluator(area_, runtime_, g, std::move(plan))
        .evaluateBatch(one, &idx, 1, nullptr, sink);
    p = std::move(one[0]);
    auto diags = sink.drain();
    return diags.empty() ? Status() : Status::error(std::move(diags[0]));
}

ExploreResult
Explorer::explore(const Graph& g, const ExploreConfig& cfg) const
{
    return SearchDriver(area_, runtime_).run(g, cfg);
}

} // namespace dhdl::dse
