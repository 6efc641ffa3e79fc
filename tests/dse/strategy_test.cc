/**
 * The strategy-driven search driver: RandomStrategy reproduces the
 * historical one-shot sweep, SurrogateStrategy runs deterministic
 * guided rounds under every budget, round tags round-trip through
 * strategy-tagged checkpoints, and surrogate model bundles
 * save/load/degrade gracefully.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "apps/apps.hh"
#include "dse/checkpoint.hh"
#include "dse/explorer.hh"
#include "dse/features.hh"
#include "dse/strategy.hh"

namespace dhdl::dse {
namespace {

Explorer&
explorer()
{
    static est::RuntimeEstimator rt;
    static Explorer ex(est::calibratedEstimator(), rt);
    return ex;
}

ExploreConfig
surrogateConfig(int points = 400)
{
    ExploreConfig cfg;
    cfg.maxPoints = points;
    cfg.seed = 99;
    cfg.strategy = StrategyKind::Surrogate;
    cfg.surrogate.initialPoints = 32;
    cfg.surrogate.roundGrowth = 2.0; // pin the schedule the tests assert
    cfg.surrogate.trainEpochs = 40;
    return cfg;
}

std::string
canonical(const ExploreResult& r)
{
    std::string out;
    for (const DesignPoint& p : r.points) {
        out += p.evaluated ? 'e' : '.';
        out += p.valid ? 'v' : '.';
        out += p.failed ? 'f' : '.';
    }
    out += '|';
    for (size_t i : r.pareto)
        out += std::to_string(i) + ",";
    return out;
}

TEST(StrategyTest, RandomEvaluatesEverythingInOneRound)
{
    Design d = apps::buildDotproduct({960000});
    ExploreConfig cfg;
    cfg.maxPoints = 120;
    auto res = explorer().explore(d.graph(), cfg);
    EXPECT_EQ(res.stats.evaluated, res.stats.total);
    ASSERT_EQ(res.stats.rounds.size(), 1u);
    EXPECT_EQ(res.stats.rounds[0].proposed, res.stats.total);
    EXPECT_EQ(res.stats.rounds[0].evaluated, res.stats.total);
    // The incremental front the driver maintains must equal the batch
    // rebuild over the final point set.
    EXPECT_EQ(res.pareto, paretoOf(res.points));
}

TEST(StrategyTest, RandomStrategyProposalIsThePoolPrefix)
{
    RandomStrategy s;
    std::vector<size_t> pool{3, 5, 8, 13};
    std::vector<size_t> out;
    ParetoFront front;
    RoundStats rs;
    s.propose(0, pool, 2, front, out, rs);
    EXPECT_EQ(out, (std::vector<size_t>{3, 5}));
    out.clear();
    s.propose(1, pool, 4, front, out, rs);
    EXPECT_TRUE(out.empty()) << "random is a single-round strategy";
}

TEST(StrategyTest, SurrogateRunsGuidedRoundsAndTagsPoints)
{
    Design d = apps::buildDotproduct({960000});
    auto res = explorer().explore(d.graph(), surrogateConfig());
    ASSERT_GE(res.stats.rounds.size(), 2u)
        << "expected a seed round plus at least one guided round";
    // Round sizes follow the geometric schedule until exhaustion.
    EXPECT_EQ(res.stats.rounds[0].proposed, 32u);
    EXPECT_EQ(res.stats.rounds[1].proposed, 64u);
    // Every evaluated point carries the round that evaluated it, and
    // the per-round counts add up to the total.
    size_t tagged = 0;
    for (const DesignPoint& p : res.points) {
        if (!p.evaluated)
            continue;
        EXPECT_GE(p.round, 0);
        ++tagged;
    }
    size_t sum = 0;
    for (const RoundStats& rs : res.stats.rounds)
        sum += rs.evaluated;
    EXPECT_EQ(sum, tagged);
    EXPECT_EQ(res.pareto, paretoOf(res.points));
}

TEST(StrategyTest, SurrogateIsDeterministicPerConfig)
{
    Design d = apps::buildGda({4800, 96});
    auto a = explorer().explore(d.graph(), surrogateConfig(300));
    auto b = explorer().explore(d.graph(), surrogateConfig(300));
    EXPECT_EQ(canonical(a), canonical(b));
    ASSERT_EQ(a.stats.rounds.size(), b.stats.rounds.size());
    for (size_t i = 0; i < a.stats.rounds.size(); ++i)
        EXPECT_EQ(a.stats.rounds[i].proposed,
                  b.stats.rounds[i].proposed);
}

TEST(StrategyTest, SurrogateRespectsEvalBudget)
{
    Design d = apps::buildDotproduct({960000});
    auto cfg = surrogateConfig();
    cfg.evalBudget = 70;
    auto res = explorer().explore(d.graph(), cfg);
    EXPECT_TRUE(res.stats.evalBudgetHit);
    EXPECT_EQ(res.stats.evaluated, 70u);
    bool budgetDiag = false;
    for (const Diag& dg : res.diags)
        budgetDiag |= dg.code == DiagCode::EvalBudgetExceeded;
    EXPECT_TRUE(budgetDiag);
}

TEST(StrategyTest, SurrogateMaxRoundsCapsTheSearch)
{
    Design d = apps::buildDotproduct({960000});
    auto cfg = surrogateConfig();
    cfg.surrogate.maxRounds = 2;
    auto res = explorer().explore(d.graph(), cfg);
    EXPECT_EQ(res.stats.rounds.size(), 2u);
    EXPECT_LT(res.stats.evaluated, res.stats.total);
}

TEST(StrategyTest, FeatureVectorIsDeterministicAndSized)
{
    Design d = apps::buildGda({4800, 96});
    ParamSpace space(d.graph());
    auto plan = Evaluator::tryCompile(d.graph());
    ASSERT_NE(plan, nullptr);
    FeatureExtractor fx(space, *plan);
    EXPECT_EQ(fx.count(), space.legalValues().size() + 6);
    auto b = space.sample(1, 5).at(0);
    auto f1 = fx.features(b);
    auto f2 = fx.features(b);
    EXPECT_EQ(f1, f2);
    for (double v : f1)
        EXPECT_TRUE(std::isfinite(v));
    // Template-class slot counts occupy the last four lanes; a real
    // design has at least one control and one memory slot.
    EXPECT_GT(f1[fx.count() - 4] + f1[fx.count() - 3], 0.0);
}

class StrategyCheckpointTest : public ::testing::Test
{
  protected:
    static std::string
    path()
    {
        return ::testing::TempDir() + "strategy_ckpt.csv";
    }

    void TearDown() override { std::remove(path().c_str()); }
};

TEST_F(StrategyCheckpointTest, RoundColumnRoundTripsForSurrogate)
{
    Design d = apps::buildDotproduct({960000});
    auto cfg = surrogateConfig(120);
    cfg.checkpointPath = path();
    auto res = explorer().explore(d.graph(), cfg);

    std::ifstream is(path());
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("# strategy=surrogate\n"), std::string::npos);

    auto cfg2 = cfg;
    cfg2.resume = true;
    cfg2.surrogate.maxRounds = 1; // restore only, no fresh work
    auto res2 = explorer().explore(d.graph(), cfg2);
    EXPECT_EQ(res2.stats.resumed, res.stats.evaluated);
    for (size_t i = 0; i < res.points.size(); ++i) {
        if (!res.points[i].evaluated)
            continue;
        EXPECT_EQ(res2.points[i].round, res.points[i].round)
            << "round tag lost for point " << i;
        EXPECT_EQ(res2.points[i].failReason, res.points[i].failReason);
    }
}

TEST_F(StrategyCheckpointTest, RandomCheckpointKeepsHistoricalLayout)
{
    Design d = apps::buildDotproduct({960000});
    ExploreConfig cfg;
    cfg.maxPoints = 60;
    cfg.seed = 7;
    cfg.checkpointPath = path();
    explorer().explore(d.graph(), cfg);

    std::ifstream is(path());
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    // No strategy header line, no round column: byte-compatible with
    // every checkpoint ever written by the random sweep.
    EXPECT_EQ(text.find("# strategy="), std::string::npos);
    EXPECT_NE(
        text.find(",binding,failreason,crc32"), std::string::npos);
}

class SurrogateModelTest : public ::testing::Test
{
  protected:
    static std::string
    path()
    {
        return ::testing::TempDir() + "surrogate_model.bin";
    }

    void TearDown() override { std::remove(path().c_str()); }
};

TEST_F(SurrogateModelTest, SaveThenWarmStartLoads)
{
    Design d = apps::buildDotproduct({960000});
    auto cfg = surrogateConfig();
    cfg.surrogate.saveModelPath = path();
    auto res = explorer().explore(d.graph(), cfg);
    std::ifstream saved(path());
    ASSERT_TRUE(saved.good()) << "model bundle was not written";

    // Warm start: the loaded bundle must rank from round 0 on.
    auto cfg2 = surrogateConfig();
    cfg2.seed = 100; // different sample set, same design/space
    cfg2.surrogate.loadModelPath = path();
    auto res2 = explorer().explore(d.graph(), cfg2);
    for (const Diag& dg : res2.diags)
        EXPECT_NE(dg.stage, "surrogate") << dg.message;
    EXPECT_GT(res2.stats.evaluated, 0u);
}

TEST_F(SurrogateModelTest, DamagedModelDegradesWithWarning)
{
    {
        std::ofstream os(path(), std::ios::trunc | std::ios::binary);
        os << "# dhdl-surrogate v1 16 00000000\nnot the real body";
    }
    Design d = apps::buildDotproduct({960000});
    auto cfg = surrogateConfig(150);
    cfg.surrogate.loadModelPath = path();
    auto res = explorer().explore(d.graph(), cfg);
    bool warned = false;
    for (const Diag& dg : res.diags)
        warned |= dg.code == DiagCode::ParseError &&
                  dg.severity == DiagSeverity::Warning &&
                  dg.stage == "surrogate";
    EXPECT_TRUE(warned);
    // The run itself is unharmed: it trains fresh and completes.
    EXPECT_EQ(res.stats.evaluated, res.stats.total);
}

TEST_F(SurrogateModelTest, MissingModelWarnsAndTrainsFresh)
{
    Design d = apps::buildDotproduct({960000});
    auto cfg = surrogateConfig(150);
    cfg.surrogate.loadModelPath = path() + ".does-not-exist";
    auto res = explorer().explore(d.graph(), cfg);
    bool warned = false;
    for (const Diag& dg : res.diags)
        warned |= dg.code == DiagCode::CheckpointIo &&
                  dg.stage == "surrogate";
    EXPECT_TRUE(warned);
    EXPECT_EQ(res.stats.evaluated, res.stats.total);
}

} // namespace
} // namespace dhdl::dse
