/**
 * Robustness of the design space explorer: per-point failure
 * isolation (serial and threaded), budgets with graceful early
 * termination, checkpoint/resume, and the no-valid-point contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "apps/apps.hh"
#include "dse/explorer.hh"
#include "dse/pareto.hh"

namespace dhdl::dse {
namespace {

Explorer&
explorer()
{
    static est::RuntimeEstimator rt;
    static Explorer ex(est::calibratedEstimator(), rt);
    return ex;
}

/** The front as a sorted list of (binding values, cycles) pairs. */
std::vector<std::pair<std::vector<int64_t>, double>>
frontKey(const ExploreResult& res)
{
    std::vector<std::pair<std::vector<int64_t>, double>> key;
    key.reserve(res.pareto.size());
    for (size_t i : res.pareto)
        key.emplace_back(res.points[i].binding.values,
                         res.points[i].cycles);
    std::sort(key.begin(), key.end());
    return key;
}

TEST(RobustnessTest, TooSmallDeviceYieldsCompleteResultWithNoValid)
{
    // Re-load the shared calibration against a device so small that
    // nothing fits: every point must be evaluated and marked
    // invalid, and the result must still be complete and usable.
    std::stringstream ss;
    est::calibratedEstimator().save(ss);
    fpga::Device tiny = fpga::Device::maia();
    tiny.alms = 100;
    tiny.dsps = 2;
    tiny.m20ks = 2;
    est::AreaEstimator small(tiny, ss);
    est::RuntimeEstimator rt;
    Explorer ex(small, rt);

    Design d = apps::buildDotproduct({960000});
    ExploreConfig cfg;
    cfg.maxPoints = 100;
    auto res = ex.explore(d.graph(), cfg);

    ASSERT_GT(res.points.size(), 0u);
    EXPECT_EQ(res.stats.valid, 0u);
    EXPECT_EQ(res.stats.evaluated, res.stats.total);
    EXPECT_EQ(res.stats.failed, 0u);
    EXPECT_TRUE(res.pareto.empty());
    EXPECT_FALSE(res.bestIndex().has_value());
    for (const auto& p : res.points) {
        EXPECT_TRUE(p.evaluated);
        EXPECT_FALSE(p.valid);
    }
}

/**
 * Directed fault injection: an estimator fault on one chosen binding
 * must fail only that point, record a diagnostic, and produce the
 * same Pareto front as pruning that binding from a clean run.
 */
void
checkFaultIsolation(int threads)
{
    Design d = apps::buildDotproduct({960000});
    ExploreConfig cfg;
    cfg.maxPoints = 150;
    auto baseline = explorer().explore(d.graph(), cfg);
    ASSERT_FALSE(baseline.pareto.empty());

    // Fault a point that is ON the front, so the front must change.
    const size_t target = baseline.pareto.front();
    const std::vector<int64_t> targetVals =
        baseline.points[target].binding.values;

    // Expected front: the baseline points with the target pruned.
    std::vector<size_t> kept;
    for (size_t i = 0; i < baseline.points.size(); ++i) {
        if (baseline.points[i].valid && i != target)
            kept.push_back(i);
    }
    auto front = paretoFront(
        kept.size(),
        [&](size_t i) { return baseline.points[kept[i]].area.alms; },
        [&](size_t i) { return baseline.points[kept[i]].cycles; });
    std::vector<std::pair<std::vector<int64_t>, double>> expected;
    for (size_t i : front)
        expected.emplace_back(baseline.points[kept[i]].binding.values,
                              baseline.points[kept[i]].cycles);
    std::sort(expected.begin(), expected.end());

    ExploreConfig faulted = cfg;
    faulted.threads = threads;
    faulted.preEvaluate = [&](const ParamBinding& b, size_t) {
        if (b.values == targetVals)
            fatal("injected estimator fault",
                  DiagCode::AreaEstimationFailed);
    };
    auto res = explorer().explore(d.graph(), faulted);

    // The sweep completed and only the chosen point failed.
    EXPECT_EQ(res.stats.total, baseline.stats.total);
    EXPECT_EQ(res.stats.evaluated, res.stats.total);
    EXPECT_EQ(res.stats.failed, 1u);
    ASSERT_LT(target, res.points.size());
    EXPECT_TRUE(res.points[target].failed);
    EXPECT_FALSE(res.points[target].valid);
    EXPECT_EQ(res.points[target].failCode,
              DiagCode::AreaEstimationFailed);
    EXPECT_EQ(res.points[target].failReason,
              "injected estimator fault");
    for (size_t i = 0; i < res.points.size(); ++i) {
        if (i == target)
            continue;
        EXPECT_TRUE(res.points[i].evaluated);
        EXPECT_FALSE(res.points[i].failed);
    }

    // The failure carries a structured diagnostic with context.
    bool found = false;
    for (const auto& diag : res.diags) {
        if (diag.pointIndex == int64_t(target)) {
            found = true;
            EXPECT_EQ(diag.code, DiagCode::AreaEstimationFailed);
            EXPECT_EQ(diag.severity, DiagSeverity::Error);
            EXPECT_FALSE(diag.context.empty());
        }
    }
    EXPECT_TRUE(found);
    auto summary = res.failureSummary();
    ASSERT_EQ(summary.size(), 1u);
    EXPECT_EQ(summary[0].second, 1u);

    // Identical Pareto front to the run with that binding pruned.
    EXPECT_EQ(frontKey(res), expected);
}

TEST(RobustnessTest, FaultInjectionIsolatedSerially)
{
    checkFaultIsolation(1);
}

TEST(RobustnessTest, FaultInjectionIsolatedWithThreadPool)
{
    checkFaultIsolation(4);
}

TEST(RobustnessTest, PanicErrorIsAlsoIsolated)
{
    Design d = apps::buildDotproduct({960000});
    ExploreConfig cfg;
    cfg.maxPoints = 60;
    size_t hits = 0;
    cfg.preEvaluate = [&](const ParamBinding&, size_t idx) {
        if (idx == 3) {
            ++hits;
            panic("injected invariant violation");
        }
    };
    auto res = explorer().explore(d.graph(), cfg);
    EXPECT_EQ(hits, 1u);
    EXPECT_EQ(res.stats.failed, 1u);
    EXPECT_EQ(res.points[3].failCode, DiagCode::InternalError);
    EXPECT_EQ(res.stats.evaluated, res.stats.total);
}

TEST(RobustnessTest, ThreadCountDoesNotChangeResults)
{
    Design d = apps::buildGda({9600, 96});
    ExploreConfig cfg;
    cfg.maxPoints = 200;
    auto serial = explorer().explore(d.graph(), cfg);
    ExploreConfig par = cfg;
    par.threads = 4;
    auto threaded = explorer().explore(d.graph(), par);

    ASSERT_EQ(serial.points.size(), threaded.points.size());
    for (size_t i = 0; i < serial.points.size(); ++i) {
        EXPECT_EQ(serial.points[i].binding.values,
                  threaded.points[i].binding.values);
        EXPECT_EQ(serial.points[i].cycles, threaded.points[i].cycles);
        EXPECT_EQ(serial.points[i].area.alms,
                  threaded.points[i].area.alms);
        EXPECT_EQ(serial.points[i].valid, threaded.points[i].valid);
    }
    EXPECT_EQ(serial.pareto, threaded.pareto);
}

TEST(RobustnessTest, TimeBudgetTerminatesGracefully)
{
    Design d = apps::buildDotproduct({960000});
    ExploreConfig cfg;
    cfg.maxPoints = 200;
    cfg.timeBudgetSeconds = 1e-9; // expires before the first point
    auto res = explorer().explore(d.graph(), cfg);
    EXPECT_TRUE(res.stats.timeBudgetHit);
    EXPECT_GT(res.stats.skipped, 0u);
    EXPECT_EQ(res.stats.evaluated + res.stats.skipped,
              res.stats.total);
    bool warned = false;
    for (const auto& diag : res.diags)
        warned |= diag.code == DiagCode::TimeBudgetExceeded &&
                  diag.severity == DiagSeverity::Warning;
    EXPECT_TRUE(warned);
}

TEST(RobustnessTest, CheckpointResumeReproducesParetoFront)
{
    Design d = apps::buildDotproduct({960000});
    const std::string path =
        testing::TempDir() + "dhdl_ckpt_test.csv";
    std::remove(path.c_str());

    ExploreConfig cfg;
    cfg.maxPoints = 150;
    auto reference = explorer().explore(d.graph(), cfg);

    // Partial run: stop after 60 evaluations, checkpointing as we go.
    ExploreConfig partial = cfg;
    partial.evalBudget = 60;
    partial.checkpointPath = path;
    partial.checkpointEvery = 20;
    auto first = explorer().explore(d.graph(), partial);
    EXPECT_TRUE(first.stats.evalBudgetHit);
    EXPECT_EQ(first.stats.evaluated, 60u);
    EXPECT_EQ(first.stats.skipped, first.stats.total - 60u);

    // Resumed run: restores the 60 and finishes the rest.
    ExploreConfig rest = cfg;
    rest.checkpointPath = path;
    rest.resume = true;
    auto second = explorer().explore(d.graph(), rest);
    EXPECT_EQ(second.stats.resumed, 60u);
    EXPECT_EQ(second.stats.evaluated, second.stats.total);
    EXPECT_EQ(second.stats.skipped, 0u);

    // Identical front (same seed => same points => same front).
    EXPECT_EQ(second.pareto, reference.pareto);
    EXPECT_EQ(frontKey(second), frontKey(reference));
    EXPECT_EQ(second.bestIndex(), reference.bestIndex());
    std::remove(path.c_str());
}

TEST(RobustnessTest, MismatchedCheckpointIsIgnoredWithWarning)
{
    Design d = apps::buildDotproduct({960000});
    const std::string path =
        testing::TempDir() + "dhdl_ckpt_bad.csv";
    {
        std::ofstream os(path);
        os << "# dhdl-explore-checkpoint v1\n";
        os << "# seed=999 total=3 nparams=1\n";
        os << "0,1,0,ok,1,1,1,1,1,100,1,\n";
    }
    ExploreConfig cfg;
    cfg.maxPoints = 50;
    cfg.checkpointPath = path;
    cfg.resume = true;
    auto res = explorer().explore(d.graph(), cfg);
    EXPECT_EQ(res.stats.resumed, 0u);
    EXPECT_EQ(res.stats.evaluated, res.stats.total);
    // A checkpoint from a different run is refused with a structured
    // CheckpointMismatch — downgraded to a warning on resume, since
    // the policy there is "start fresh and say so".
    bool warned = false;
    for (const auto& diag : res.diags)
        warned |= diag.code == DiagCode::CheckpointMismatch &&
                  diag.severity == DiagSeverity::Warning;
    EXPECT_TRUE(warned);
    std::remove(path.c_str());
}

TEST(RobustnessTest, EvaluateGuardedReportsStatus)
{
    Design d = apps::buildDotproduct({960000});
    DesignPoint p;
    p.binding = d.params().defaults();
    Status ok = explorer().evaluateGuarded(d.graph(), p);
    EXPECT_TRUE(ok.ok());
    EXPECT_TRUE(p.evaluated);
    EXPECT_FALSE(p.failed);
    EXPECT_GT(p.cycles, 0);

    // An out-of-range binding must come back as a Status, not throw.
    DesignPoint bad;
    bad.binding.values = {}; // missing every parameter
    Status err = explorer().evaluateGuarded(d.graph(), bad);
    EXPECT_FALSE(err.ok());
    EXPECT_TRUE(bad.failed);
    EXPECT_FALSE(bad.valid);
    EXPECT_FALSE(bad.failReason.empty());
}

/** The Error diags of a run (warnings excluded). */
std::vector<Diag>
errorsOf(const ExploreResult& res)
{
    std::vector<Diag> out;
    for (const Diag& d : res.diags)
        if (d.severity == DiagSeverity::Error)
            out.push_back(d);
    return out;
}

/**
 * A graph that cannot be evaluated at all is refused before round 0:
 * exactly one Error diag at the "plan" stage, no point evaluated,
 * serially and threaded.
 */
void
expectRefusedBeforeRoundZero(const Explorer& ex, const Graph& g,
                             const std::string& reason)
{
    for (int threads : {1, 4}) {
        ExploreConfig cfg;
        cfg.maxPoints = 200;
        cfg.threads = threads;
        auto res = ex.explore(g, cfg);
        const std::string at = "threads=" + std::to_string(threads);
        EXPECT_EQ(res.stats.evaluated, 0u) << at;
        EXPECT_EQ(res.stats.failed, 0u) << at;
        EXPECT_TRUE(res.pareto.empty()) << at;
        auto errors = errorsOf(res);
        ASSERT_EQ(errors.size(), 1u) << at;
        EXPECT_EQ(errors[0].stage, "plan") << at;
        EXPECT_EQ(errors[0].pointIndex, -1) << at;
        EXPECT_NE(errors[0].message.find(reason), std::string::npos)
            << at << ": " << errors[0].message;
    }
}

TEST(RobustnessTest, GraphFailingValidationIsOneDiagNotACrash)
{
    // Plan compilation assumes a rooted graph: validation runs first
    // and turns a root-less one into the plan-stage diag.
    Design d = apps::buildGda({9600, 96});
    d.graph().root = kNoNode;
    expectRefusedBeforeRoundZero(explorer(), d.graph(), "accel");

    DesignPoint p;
    p.binding = d.params().defaults();
    Status s = explorer().evaluateGuarded(d.graph(), p);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.diag().stage, "plan");
    EXPECT_TRUE(p.failed);
    EXPECT_FALSE(p.valid);
    EXPECT_EQ(p.failStage, "plan");
    EXPECT_THROW(explorer().evaluate(d.graph(), p.binding), FatalError);
}

TEST(RobustnessTest, UncharacterizedTemplateClassIsOneDiag)
{
    // Reload the shared calibration with every BramInst model
    // dropped: a design with scratchpads cannot be estimated.
    TemplateInst bram;
    bram.tkind = TemplateKind::BramInst;
    const std::string drop =
        "class " + std::to_string(est::AreaModel::classKey(bram));
    std::stringstream in, out;
    est::calibratedEstimator().save(in);
    std::string line;
    int models = -1; // model headers left to skip; -1 = not skipping
    while (std::getline(in, line)) {
        if (line == drop) {
            models = 5;
            continue;
        }
        if (models >= 0) {
            if (line.rfind("# dhdl-model", 0) == 0)
                --models;
            if (models >= 0 && line.rfind("class ", 0) != 0)
                continue;
            models = -1;
        }
        if (line.rfind("area_model ", 0) == 0) {
            std::istringstream hdr(line.substr(11));
            size_t count = 0;
            std::string version;
            hdr >> count >> version;
            line = "area_model " + std::to_string(count - 1) + " " +
                   version;
        }
        out << line << "\n";
    }
    est::AreaEstimator partial(fpga::Device::maia(), out);
    est::RuntimeEstimator rt;
    Explorer ex(partial, rt);

    Design d = apps::buildGda({9600, 96});
    expectRefusedBeforeRoundZero(ex, d.graph(),
                                 "uncharacterized template class: "
                                 "BramInst");
    DesignPoint p;
    p.binding = d.params().defaults();
    EXPECT_FALSE(ex.evaluateGuarded(d.graph(), p).ok());
    EXPECT_EQ(p.failStage, "plan");
}

} // namespace
} // namespace dhdl::dse
