#include "dse/driver.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "core/faultinject.hh"
#include "cpu/thread_pool.hh"
#include "dse/checkpoint.hh"
#include "dse/strategy.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace dhdl::dse {

const char*
strategyName(StrategyKind k)
{
    switch (k) {
    case StrategyKind::Surrogate:
        return "surrogate";
    case StrategyKind::Random:
        break;
    }
    return "random";
}

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Per-round counters under a dynamic prefix (cold path: once per
 *  round, not per point). */
void
recordRound(const RoundStats& rs)
{
    if (!obs::enabled())
        return;
    auto us = [](double s) {
        return s > 0 ? uint64_t(s * 1e6) : uint64_t(0);
    };
    const std::string p =
        "dse.round." + std::to_string(rs.round) + ".";
    obs::addCounter(p + "pool", rs.poolBefore);
    obs::addCounter(p + "proposed", rs.proposed);
    obs::addCounter(p + "evaluated", rs.evaluated);
    obs::addCounter(p + "front", rs.frontSize);
    obs::addCounter(p + "propose.us", us(rs.proposeSeconds));
    obs::addCounter(p + "train.us", us(rs.trainSeconds));
    obs::addCounter(p + "rank.us", us(rs.rankSeconds));
    obs::addCounter(p + "eval.us", us(rs.evalSeconds));
    obs::addCounter("dse.round.count", 1);
    obs::addCounter("dse.surrogate.train.us", us(rs.trainSeconds));
    obs::addCounter("dse.surrogate.rank.us", us(rs.rankSeconds));
}

} // namespace

ExploreResult
SearchDriver::run(const Graph& g, const ExploreConfig& cfg) const
{
    const auto t0 = Clock::now();
    DHDL_OBS_SPAN("dse", "explore");

    require(cfg.shardCount >= 1 && cfg.shardIndex >= 0 &&
                cfg.shardIndex < cfg.shardCount,
            "shard index must satisfy 0 <= index < count");

    ParamSpace space(g);
    ExploreResult res;
    DiagSink sink;

    auto bindings = sampleGlobal(space, cfg, &sink);
    res.points.resize(bindings.size());
    for (size_t i = 0; i < bindings.size(); ++i)
        res.points[i].binding = std::move(bindings[i]);
    res.stats.requested = size_t(std::max(0, cfg.maxPoints));
    res.stats.total = res.points.size();

    // The meta block re-serializes the design and the space to hash
    // them; skip that entirely when no checkpoint file is involved.
    CheckpointMeta meta;
    if (!cfg.checkpointPath.empty()) {
        meta = makeCheckpointMeta(g, space, cfg.seed, res.points.size());
        meta.strategy = strategyName(cfg.strategy);
    }
    if (cfg.resume && !cfg.checkpointPath.empty()) {
        CheckpointLoadStats ls;
        Status st = loadCheckpointFile(cfg.checkpointPath, g, meta,
                                       res.points, sink, &ls);
        if (!st.ok()) {
            // A refused checkpoint (missing, or written by a
            // different design/seed/space) never merges; the run
            // restarts fresh and says so.
            Diag d = st.diag();
            d.severity = DiagSeverity::Warning;
            d.message += "; starting fresh";
            sink.report(d);
        }
        res.stats.resumed = ls.restored;
        res.stats.ckptTruncated = ls.truncated;
        res.stats.ckptCorrupt = ls.corrupt;
    }

    // Candidate pool: this shard's slice of everything not restored
    // from the checkpoint, in sample order. Strategies draw from it;
    // the evaluation-count budget caps how much of it any strategy
    // may spend.
    std::vector<size_t> pool;
    pool.reserve(res.points.size());
    for (size_t i = 0; i < res.points.size(); ++i) {
        if (res.points[i].evaluated)
            continue;
        if (cfg.shardCount > 1 &&
            int(i % size_t(cfg.shardCount)) != cfg.shardIndex) {
            ++res.stats.notInShard;
            continue;
        }
        pool.push_back(i);
    }
    int64_t remaining = int64_t(pool.size());
    if (cfg.evalBudget > 0 && int64_t(pool.size()) > cfg.evalBudget) {
        res.stats.evalBudgetHit = true;
        Diag d;
        d.code = DiagCode::EvalBudgetExceeded;
        d.severity = DiagSeverity::Warning;
        d.stage = "explore";
        d.message = "evaluation budget of " +
                    std::to_string(cfg.evalBudget) + " points leaves " +
                    std::to_string(pool.size() - size_t(cfg.evalBudget)) +
                    " un-evaluated";
        sink.report(d);
        remaining = cfg.evalBudget;
    }

    // Wall-clock budget: checked before each point; once expired,
    // remaining points are skipped (and later resumable). A
    // cooperative cancel (cfg.cancel) halts through the same seam so
    // cancellation is exactly as prompt — and as resumable — as a
    // budget expiry.
    std::atomic<bool> outOfTime{false};
    std::atomic<bool> cancelled{false};
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(
                     cfg.timeBudgetSeconds > 0 ? cfg.timeBudgetSeconds
                                               : 0));
    auto expired = [&]() {
        if (cfg.cancel) {
            if (cancelled.load(std::memory_order_relaxed))
                return true;
            if (cfg.cancel->load(std::memory_order_relaxed)) {
                cancelled.store(true, std::memory_order_relaxed);
                return true;
            }
        }
        if (cfg.timeBudgetSeconds <= 0)
            return false;
        if (outOfTime.load(std::memory_order_relaxed))
            return true;
        if (Clock::now() >= deadline) {
            outOfTime.store(true, std::memory_order_relaxed);
            return true;
        }
        return false;
    };
    auto halted = [&]() {
        return outOfTime.load() || cancelled.load();
    };

    // Compile the binding-invariant plan exactly once; every worker
    // evaluator shares it read-only. A caller that already holds the
    // plan (the serving layer's plan cache) passes it in and the
    // compile — span included — never happens. A graph that cannot
    // be evaluated at all (it fails to compile, or uses a template
    // class the area model never characterized) is reported once,
    // before round 0, and no point is evaluated.
    Diag why;
    auto plan = cfg.plan;
    if (!plan) {
        const auto planT0 = Clock::now();
        plan = Evaluator::tryCompile(g, &why);
        res.stats.planSeconds = secondsSince(planT0);
        obs::recordSpan("dse", "plan-compile", obs::toMicros(planT0),
                        uint64_t(res.stats.planSeconds * 1e6));
    }
    if (plan && !Evaluator::batchable(area_, *plan, &why))
        plan = nullptr;
    std::unique_ptr<SearchStrategy> strategy;
    if (plan) {
        strategy = makeStrategy(cfg, space, *plan, res.points, sink);
    } else {
        sink.report(std::move(why));
        remaining = 0;
    }

    // Incremental Pareto front over everything evaluated so far,
    // seeded with checkpoint-restored points in index order.
    ParetoFront front;
    for (size_t i = 0; i < res.points.size(); ++i) {
        const DesignPoint& p = res.points[i];
        if (p.evaluated && p.valid)
            front.insert(i, p.area.alms, double(p.cycles));
    }

    const auto* hook = cfg.preEvaluate ? &cfg.preEvaluate : nullptr;
    // Chaos seams (disarmed: one relaxed load). The crash is a real
    // SIGKILL — exactly what the durable checkpoint format and the
    // shard supervisor exist to survive. The seams fire once per
    // point after its batch, so crash-after-N-evals counts points
    // (the crash lands on a batch boundary, which resume converges
    // from identically).
    auto faultSeams = [&](size_t evals) {
        if (!fault::active())
            return;
        for (size_t k = 0; k < evals; ++k) {
            if (fault::hit(fault::Point::CrashAfterEvals))
                fault::crashHard();
            if (fault::hit(fault::Point::HangAfterEvals))
                fault::sleepFor(fault::hangSeconds());
        }
    };
    // The current round's proposal; evalRange indexes it.
    std::vector<size_t> proposed;
    // Batched handout: contiguous runs of the proposal, inside one
    // worker's range, inside one checkpoint slice. Result order is
    // indexed by global point index, so batching cannot reorder it.
    const int64_t bsz = std::max<int64_t>(1, cfg.batchSize);
    auto evalRange = [&](Evaluator& ev, int64_t a, int64_t b) {
        for (int64_t s = a; s < b; s += bsz) {
            if (expired())
                return;
            const size_t bn = size_t(std::min(bsz, b - s));
            ev.evaluateBatch(res.points, &proposed[size_t(s)], bn,
                             hook, sink);
            faultSeams(bn);
        }
    };

    std::unique_ptr<cpu::ThreadPool> tpool;
    if (cfg.threads > 1)
        tpool = std::make_unique<cpu::ThreadPool>(cfg.threads);

    // The serial path reuses one evaluator (and its Inst pool and
    // estimator scratch) across every slice of every round.
    std::optional<Evaluator> serial;
    if (!tpool && plan)
        serial.emplace(area_, runtime_, g, plan);

    bool ckFailed = false;
    auto checkpoint = [&]() {
        if (cfg.checkpointPath.empty())
            return;
        if (!writeCheckpointFile(cfg.checkpointPath, meta,
                                 res.points) &&
            !ckFailed) {
            ckFailed = true;
            Diag d;
            d.code = DiagCode::CheckpointIo;
            d.severity = DiagSeverity::Warning;
            d.stage = "checkpoint";
            d.message = "cannot write checkpoint '" +
                        cfg.checkpointPath + "'";
            sink.report(d);
        }
    };

    for (int round = 0; remaining > 0; ++round) {
        RoundStats rs;
        rs.round = round;
        rs.poolBefore = pool.size();

        proposed.clear();
        const auto pT0 = Clock::now();
        strategy->propose(round, pool, size_t(remaining), front,
                          proposed, rs);
        rs.proposeSeconds = secondsSince(pT0);
        if (proposed.empty())
            break;
        rs.proposed = proposed.size();
        for (size_t idx : proposed)
            res.points[idx].round = round;

        // Evaluate in slices so periodic checkpoints land between
        // parallel batches; without checkpointing there is one slice.
        const int64_t n = int64_t(proposed.size());
        const int64_t slice =
            cfg.checkpointPath.empty()
                ? std::max<int64_t>(n, 1)
                : std::max<int64_t>(1, cfg.checkpointEvery);
        const auto eT0 = Clock::now();
        for (int64_t lo = 0; lo < n; lo += slice) {
            const int64_t hi = std::min(n, lo + slice);
            if (tpool) {
                tpool->parallelFor(hi - lo, [&](int64_t a, int64_t b) {
                    Evaluator ev(area_, runtime_, g, plan);
                    evalRange(ev, lo + a, lo + b);
                });
            } else {
                evalRange(*serial, lo, hi);
            }
            checkpoint();
            if (halted())
                break;
        }
        rs.evalSeconds = secondsSince(eT0);

        strategy->observe(round, res.points, proposed);
        for (size_t idx : proposed) {
            const DesignPoint& p = res.points[idx];
            if (!p.evaluated)
                continue;
            ++rs.evaluated;
            rs.evalOrder.push_back(idx);
            if (p.valid)
                front.insert(idx, p.area.alms, double(p.cycles));
        }
        rs.frontSize = front.size();
        remaining -= int64_t(rs.evaluated);

        // Spent candidates leave the pool; proposed-but-skipped ones
        // (an expired clock) stay, and the next resume retries them.
        size_t w = 0;
        for (size_t idx : pool)
            if (!res.points[idx].evaluated)
                pool[w++] = idx;
        pool.resize(w);

        recordRound(rs);
        res.stats.rounds.push_back(rs);
        if (cfg.onRound)
            cfg.onRound(res.stats.rounds.back(), front, res.points);
        if (halted())
            break;
    }
    if (strategy)
        strategy->finish(sink);

    // Aggregate stats; points skipped by a budget stay un-evaluated.
    for (const DesignPoint& p : res.points) {
        res.stats.evaluated += p.evaluated ? 1 : 0;
        res.stats.failed += p.failed ? 1 : 0;
        res.stats.valid += p.valid ? 1 : 0;
    }
    res.stats.skipped =
        res.stats.total - res.stats.evaluated - res.stats.notInShard;
    if (outOfTime.load()) {
        res.stats.timeBudgetHit = true;
        Diag d;
        d.code = DiagCode::TimeBudgetExceeded;
        d.severity = DiagSeverity::Warning;
        d.stage = "explore";
        d.message = "wall-clock budget of " +
                    std::to_string(cfg.timeBudgetSeconds) +
                    "s expired; " + std::to_string(res.stats.skipped) +
                    " point(s) skipped";
        sink.report(d);
    }
    if (cancelled.load()) {
        res.stats.cancelled = true;
        Diag d;
        d.code = DiagCode::Cancelled;
        d.severity = DiagSeverity::Warning;
        d.stage = "explore";
        d.message = "run cancelled; " +
                    std::to_string(res.stats.skipped) +
                    " point(s) skipped";
        sink.report(d);
    }

    // Deterministic diagnostic order regardless of thread count, then
    // the Pareto front — the incrementally maintained one, which the
    // property suite proves equal to a batch paretoOf() rebuild.
    res.diags = sink.drain();
    sortDiags(res.diags);
    res.pareto = front.indices();

    res.stats.seconds = secondsSince(t0);

    // Fold the run into the process-wide registry: these counters are
    // what `dhdlc --profile`, `--metrics` and the throughput bench
    // render, next to the per-stage counters evaluateBatch adds.
    if (obs::enabled()) {
        static const obs::Counter cRuns("dse.explore.runs");
        static const obs::Counter cUs("dse.explore.us");
        static const obs::Counter cPlanUs("dse.plan.compile.us");
        static const obs::Counter cEval("dse.points.evaluated");
        static const obs::Counter cFail("dse.points.failed");
        static const obs::Counter cValid("dse.points.valid");
        static const obs::Counter cSkip("dse.points.skipped");
        static const obs::Counter cDiags("dse.diags");
        auto us = [](double s) {
            return s > 0 ? uint64_t(s * 1e6) : uint64_t(0);
        };
        cRuns.add(1);
        cUs.add(us(res.stats.seconds));
        cPlanUs.add(us(res.stats.planSeconds));
        cEval.add(res.stats.evaluated);
        cFail.add(res.stats.failed);
        cValid.add(res.stats.valid);
        cSkip.add(res.stats.skipped);
        cDiags.add(res.diags.size());
    }
    return res;
}

} // namespace dhdl::dse
