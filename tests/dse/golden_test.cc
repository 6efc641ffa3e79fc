/**
 * Golden-equivalence suite for the evaluation pipeline. The explorer
 * promises bit-identical points, diagnostics ordering and Pareto
 * fronts for a fixed seed at any thread count; this suite pins that
 * promise to a committed fixture so a refactor of the evaluation
 * path (instance construction, estimators, evaluator staging) cannot
 * silently change results.
 *
 * The fixture is the checkpoint CSV of a small GDA exploration plus
 * its Pareto indices. Regenerate with:
 *
 *   DHDL_UPDATE_GOLDEN=1 ./dse_tests --gtest_filter='Golden*'
 *
 * and commit the files under tests/dse/golden/ — but only when an
 * intentional model change alters the expected numbers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "apps/apps.hh"
#include "core/parser.hh"
#include "core/printer.hh"
#include "dse/explorer.hh"
#include "obs/obs.hh"

#ifndef DHDL_TEST_DATA_DIR
#define DHDL_TEST_DATA_DIR "."
#endif

namespace dhdl::dse {
namespace {

std::string
goldenDir()
{
    return std::string(DHDL_TEST_DATA_DIR) + "/golden";
}

std::string
readFile(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

bool
updateMode()
{
    const char* v = std::getenv("DHDL_UPDATE_GOLDEN");
    return v && *v && std::string(v) != "0";
}

std::vector<std::pair<std::string, Design>>
goldenApps()
{
    std::vector<std::pair<std::string, Design>> out;
    for (const auto& app : apps::allApps())
        out.emplace_back(app.name, app.build(0.5));
    out.emplace_back("conv2d", apps::buildConv2d());
    return out;
}

class GoldenFixture : public ::testing::Test
{
  protected:
    static Explorer&
    explorer()
    {
        static est::RuntimeEstimator rt;
        static Explorer ex(est::calibratedEstimator(), rt);
        return ex;
    }

    /** The pinned exploration: small GDA sweep, fixed seed. */
    static ExploreResult
    runPinnedOn(const Graph& g, int threads, const std::string& ckpt)
    {
        ExploreConfig cfg;
        cfg.maxPoints = 200;
        cfg.threads = threads;
        cfg.checkpointPath = ckpt;
        // One final checkpoint write covering every point.
        cfg.checkpointEvery = 1 << 30;
        return explorer().explore(g, cfg);
    }

    static ExploreResult
    runPinned(int threads, const std::string& ckpt)
    {
        Design d = apps::buildGda({9600, 96});
        return runPinnedOn(d.graph(), threads, ckpt);
    }

    static std::string
    renderPareto(const ExploreResult& res)
    {
        std::ostringstream os;
        for (size_t i : res.pareto)
            os << i << "\n";
        return os.str();
    }

    /** Diagnostics as a stable text form (order is part of the
     *  contract). */
    static std::string
    renderDiags(const ExploreResult& res)
    {
        std::ostringstream os;
        for (const auto& d : res.diags)
            os << d.pointIndex << "|" << d.stage << "|"
               << diagCodeName(d.code) << "|" << d.message << "\n";
        return os.str();
    }

    static void
    checkAgainstGolden(int threads)
    {
        std::string ckpt = testing::TempDir() + "golden_gda_t" +
                           std::to_string(threads) + ".ckpt";
        auto res = runPinned(threads, ckpt);
        ASSERT_GT(res.stats.evaluated, 0u);

        std::string got_ckpt = readFile(ckpt);
        std::string got_pareto = renderPareto(res);
        std::string got_diags = renderDiags(res);
        std::remove(ckpt.c_str());
        ASSERT_FALSE(got_ckpt.empty());

        if (updateMode() && threads == 1) {
            std::ofstream(goldenDir() + "/gda_explore.ckpt",
                          std::ios::binary)
                << got_ckpt;
            std::ofstream(goldenDir() + "/gda_pareto.txt",
                          std::ios::binary)
                << got_pareto;
            std::ofstream(goldenDir() + "/gda_diags.txt",
                          std::ios::binary)
                << got_diags;
            GTEST_SKIP() << "golden fixture updated";
        }

        std::string want_ckpt =
            readFile(goldenDir() + "/gda_explore.ckpt");
        ASSERT_FALSE(want_ckpt.empty())
            << "missing fixture " << goldenDir()
            << "/gda_explore.ckpt (run with DHDL_UPDATE_GOLDEN=1)";
        // Byte-identical checkpoint CSV: same points, same order, same
        // formatting, independent of thread count.
        EXPECT_EQ(want_ckpt, got_ckpt) << "threads=" << threads;
        EXPECT_EQ(readFile(goldenDir() + "/gda_pareto.txt"), got_pareto)
            << "threads=" << threads;
        EXPECT_EQ(readFile(goldenDir() + "/gda_diags.txt"), got_diags)
            << "threads=" << threads;
    }

    static ExploreResult
    runFaulted(const Graph& g, int threads, const std::string& ckpt)
    {
        ExploreConfig cfg;
        cfg.maxPoints = 200;
        cfg.threads = threads;
        cfg.checkpointPath = ckpt;
        cfg.checkpointEvery = 1 << 30;
        cfg.preEvaluate = [](const ParamBinding&, size_t idx) {
            if (idx % 17 == 3)
                throw std::runtime_error("injected fault at point " +
                                         std::to_string(idx));
        };
        return explorer().explore(g, cfg);
    }

    static void
    checkAppsAgainstGolden(int threads)
    {
        const std::string dir = goldenDir() + "/apps/";
        for (auto& [name, d] : goldenApps()) {
            SCOPED_TRACE(name + " threads=" + std::to_string(threads));
            std::string ckpt = testing::TempDir() + "golden_" + name +
                               "_t" + std::to_string(threads) + ".ckpt";
            const bool update = updateMode() && threads == 1;
            auto res = runFaulted(d.graph(), threads, ckpt);
            std::string got_ckpt = readFile(ckpt);
            std::remove(ckpt.c_str());
            ASSERT_GT(res.stats.failed, 0u);
            ASSERT_GT(res.stats.evaluated, res.stats.failed);
            ASSERT_FALSE(got_ckpt.empty());

            const std::string base = dir + name;
            if (update) {
                std::ofstream(base + "_explore.ckpt", std::ios::binary)
                    << got_ckpt;
                std::ofstream(base + "_pareto.txt", std::ios::binary)
                    << renderPareto(res);
                std::ofstream(base + "_diags.txt", std::ios::binary)
                    << renderDiags(res);
                continue;
            }
            std::string want_ckpt = readFile(base + "_explore.ckpt");
            ASSERT_FALSE(want_ckpt.empty())
                << "missing fixture " << base
                << "_explore.ckpt (run with DHDL_UPDATE_GOLDEN=1)";
            EXPECT_EQ(want_ckpt, got_ckpt);
            EXPECT_EQ(readFile(base + "_pareto.txt"), renderPareto(res));
            EXPECT_EQ(readFile(base + "_diags.txt"), renderDiags(res));
        }
        if (updateMode() && threads == 1)
            GTEST_SKIP() << "golden fixtures updated";
    }
};

TEST_F(GoldenFixture, SerialMatchesCommittedFixture)
{
    checkAgainstGolden(1);
}

TEST_F(GoldenFixture, FourThreadsMatchCommittedFixture)
{
    checkAgainstGolden(4);
}

/**
 * Every Table II app (at half scale, as BatchEquiv builds them) plus
 * conv2d, each in one pinned 200-point run with a deterministic
 * mid-batch fault: points 3, 20, 37, ... throw from the pre-evaluate
 * seam. Each checkpoint fixture therefore holds both evaluated and
 * failed records, and each diagnostics fixture pins the failures.
 * The fixtures were generated by the point-at-a-time evaluator that
 * the batched pipeline replaced, so a refactor must never regenerate
 * them: they anchor the batched pipeline (and BatchEquiv's
 * batch-of-one reference) to the original per-point results.
 */
TEST_F(GoldenFixture, EveryAppSerialMatchesCommittedFixture)
{
    checkAppsAgainstGolden(1);
}

TEST_F(GoldenFixture, EveryAppFourThreadsMatchesCommittedFixture)
{
    checkAppsAgainstGolden(4);
}

/**
 * Turning tracing/metrics collection on must not perturb results:
 * checkpoint CSV, Pareto front and diagnostics are byte-identical
 * with obs recording enabled and disabled, serial and threaded. This
 * is the subsystem's core design rule — instrumentation writes only
 * obs-owned state — pinned as a test.
 */
TEST_F(GoldenFixture, TracingEnabledIsByteIdenticalToDisabled)
{
    struct Run {
        std::string ckpt, pareto, diags;
    };
    auto runWith = [&](bool traced, int threads) {
        const bool was = obs::enabled();
        obs::setEnabled(traced);
        std::string ckpt = testing::TempDir() + "golden_obs_" +
                           (traced ? "on" : "off") + "_t" +
                           std::to_string(threads) + ".ckpt";
        auto res = runPinned(threads, ckpt);
        obs::setEnabled(was);
        Run r{readFile(ckpt), renderPareto(res), renderDiags(res)};
        std::remove(ckpt.c_str());
        return r;
    };

    for (int threads : {1, 4}) {
        Run off = runWith(false, threads);
        Run on = runWith(true, threads);
        ASSERT_FALSE(off.ckpt.empty());
        EXPECT_EQ(off.ckpt, on.ckpt) << "threads=" << threads;
        EXPECT_EQ(off.pareto, on.pareto) << "threads=" << threads;
        EXPECT_EQ(off.diags, on.diags) << "threads=" << threads;
    }
}

/**
 * The file-driven pipeline makes the same promise: exploring the
 * committed `.dhdl` serialization of the pinned design reproduces
 * the checkpoint, Pareto front and diagnostics fixtures exactly —
 * `dhdlc explore gda.dhdl` is bit-for-bit `dhdlc explore gda`.
 */
TEST_F(GoldenFixture, ParsedDesignFileReproducesFixture)
{
    std::string path = goldenDir() + "/gda_design.dhdl";
    if (updateMode()) {
        Design d = apps::buildGda({9600, 96});
        std::ofstream(path, std::ios::binary) << emitIR(d.graph());
        GTEST_SKIP() << "golden fixture updated";
    }

    std::string text = readFile(path);
    ASSERT_FALSE(text.empty())
        << "missing fixture " << path
        << " (run with DHDL_UPDATE_GOLDEN=1)";
    // The fixture itself is canonical text.
    ParseResult res = parseIR(text);
    ASSERT_TRUE(res.ok()) << res.status.diag().str();
    EXPECT_EQ(emitIR(*res.graph), text);

    std::string ckpt = testing::TempDir() + "golden_gda_parsed.ckpt";
    auto got = runPinnedOn(*res.graph, 1, ckpt);
    std::string got_ckpt = readFile(ckpt);
    std::remove(ckpt.c_str());
    ASSERT_FALSE(got_ckpt.empty());
    EXPECT_EQ(readFile(goldenDir() + "/gda_explore.ckpt"), got_ckpt);
    EXPECT_EQ(readFile(goldenDir() + "/gda_pareto.txt"),
              renderPareto(got));
    EXPECT_EQ(readFile(goldenDir() + "/gda_diags.txt"),
              renderDiags(got));
}

} // namespace
} // namespace dhdl::dse
