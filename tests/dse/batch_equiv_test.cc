/**
 * @file
 * Batch-equivalence property suite: the batched evaluation pipeline
 * (Evaluator::evaluateBatch with any batch size, any thread count)
 * must reproduce a batch of one bit for bit — every area field, every
 * cycle count, every failure diagnostic, and the Pareto front. The
 * reference for each design is one batch-of-one run (batchSize = 1,
 * threads = 1), itself anchored to the point-at-a-time evaluator by
 * the all-app goldens (golden_test.cc); everything else is compared
 * against it with bitwise double comparisons, not tolerances.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "apps/apps.hh"
#include "dse/explorer.hh"

namespace dhdl::dse {
namespace {

Explorer&
explorer()
{
    static est::RuntimeEstimator rt;
    static Explorer ex(est::calibratedEstimator(), rt);
    return ex;
}

/** Bitwise double equality: NaNs compare by payload, -0.0 != +0.0. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

#define EXPECT_BITEQ(a, b, what)                                       \
    EXPECT_TRUE(sameBits((a), (b)))                                    \
        << what << ": " << (a) << " vs " << (b)

void
expectIdentical(const ExploreResult& ref, const ExploreResult& got,
                const std::string& label)
{
    ASSERT_EQ(ref.points.size(), got.points.size()) << label;
    for (size_t i = 0; i < ref.points.size(); ++i) {
        const DesignPoint& a = ref.points[i];
        const DesignPoint& b = got.points[i];
        const std::string at = label + " point " + std::to_string(i);
        EXPECT_EQ(a.binding.values, b.binding.values) << at;
        EXPECT_EQ(a.evaluated, b.evaluated) << at;
        EXPECT_EQ(a.failed, b.failed) << at;
        EXPECT_EQ(a.valid, b.valid) << at;
        EXPECT_EQ(a.failCode, b.failCode) << at;
        EXPECT_EQ(a.failStage, b.failStage) << at;
        EXPECT_EQ(a.failReason, b.failReason) << at;
        EXPECT_BITEQ(a.cycles, b.cycles, at + " cycles");
        EXPECT_BITEQ(a.area.raw.lutsPack, b.area.raw.lutsPack, at);
        EXPECT_BITEQ(a.area.raw.lutsNoPack, b.area.raw.lutsNoPack, at);
        EXPECT_BITEQ(a.area.raw.regs, b.area.raw.regs, at);
        EXPECT_BITEQ(a.area.raw.dsps, b.area.raw.dsps, at);
        EXPECT_BITEQ(a.area.raw.brams, b.area.raw.brams, at);
        EXPECT_BITEQ(a.area.routeLuts, b.area.routeLuts, at);
        EXPECT_BITEQ(a.area.dupRegs, b.area.dupRegs, at);
        EXPECT_BITEQ(a.area.unavailLuts, b.area.unavailLuts, at);
        EXPECT_BITEQ(a.area.dupBrams, b.area.dupBrams, at);
        EXPECT_BITEQ(a.area.alms, b.area.alms, at + " alms");
        EXPECT_BITEQ(a.area.luts, b.area.luts, at);
        EXPECT_BITEQ(a.area.regs, b.area.regs, at);
        EXPECT_BITEQ(a.area.dsps, b.area.dsps, at);
        EXPECT_BITEQ(a.area.brams, b.area.brams, at);
    }
    EXPECT_EQ(ref.pareto, got.pareto) << label;
    ASSERT_EQ(ref.diags.size(), got.diags.size()) << label;
    for (size_t i = 0; i < ref.diags.size(); ++i) {
        const Diag& a = ref.diags[i];
        const Diag& b = got.diags[i];
        const std::string at = label + " diag " + std::to_string(i);
        EXPECT_EQ(a.code, b.code) << at;
        EXPECT_EQ(a.severity, b.severity) << at;
        EXPECT_EQ(a.message, b.message) << at;
        EXPECT_EQ(a.stage, b.stage) << at;
        EXPECT_EQ(a.context, b.context) << at;
        EXPECT_EQ(a.pointIndex, b.pointIndex) << at;
        // `worker` is display-only and scheduling-dependent: skipped.
    }
    EXPECT_EQ(ref.stats.total, got.stats.total) << label;
    EXPECT_EQ(ref.stats.evaluated, got.stats.evaluated) << label;
    EXPECT_EQ(ref.stats.failed, got.stats.failed) << label;
    EXPECT_EQ(ref.stats.valid, got.stats.valid) << label;
}

constexpr int kPoints = 160; //!< Ragged against every batch size.

/** All designs under test: the app registry plus the conv2d
 *  extension app (stencil shapes: delay lines, halo'd tiles). */
std::vector<std::pair<std::string, Design>>
designs()
{
    std::vector<std::pair<std::string, Design>> out;
    for (const auto& app : apps::allApps())
        out.emplace_back(app.name, app.build(0.5));
    out.emplace_back("conv2d", apps::buildConv2d());
    return out;
}

ExploreConfig
config(int batch, int threads)
{
    ExploreConfig cfg;
    cfg.maxPoints = kPoints;
    cfg.batchSize = batch;
    cfg.threads = threads;
    return cfg;
}

TEST(BatchEquiv, EveryBatchSizeMatchesBatchOfOneBitForBit)
{
    // Batch sizes: degenerate (1, threaded), ragged (7), the default
    // (64), and larger than the whole sample set ("space size").
    const int sizes[] = {1, 7, 64, 10 * kPoints};
    for (auto& [name, d] : designs()) {
        auto ref = explorer().explore(d.graph(), config(1, 1));
        ASSERT_GT(ref.stats.evaluated, 0u) << name;
        for (int batch : sizes) {
            for (int threads : {1, 4}) {
                if (batch == 1 && threads == 1)
                    continue; // the reference itself
                auto got =
                    explorer().explore(d.graph(), config(batch, threads));
                expectIdentical(ref, got,
                                name + " batch=" +
                                    std::to_string(batch) + " threads=" +
                                    std::to_string(threads));
            }
        }
    }
}

TEST(BatchEquiv, FailingPointsMidBatchMatchBatchOfOne)
{
    // Deterministic per-index failures injected through the
    // pre-evaluate seam: points 3, 20, 37, ... throw inside the
    // batch. The batched pipeline must exclude exactly those points,
    // keep evaluating their batchmates, and report the identical
    // diagnostics a batch of one produces.
    auto hook = [](const ParamBinding&, size_t idx) {
        if (idx % 17 == 3)
            throw std::runtime_error("injected fault at point " +
                                     std::to_string(idx));
    };
    for (auto& [name, d] : designs()) {
        auto refCfg = config(1, 1);
        refCfg.preEvaluate = hook;
        auto ref = explorer().explore(d.graph(), refCfg);
        ASSERT_GT(ref.stats.failed, 0u) << name;
        ASSERT_GT(ref.stats.evaluated, ref.stats.failed) << name;
        for (int threads : {1, 4}) {
            auto cfg = config(7, threads);
            cfg.preEvaluate = hook;
            auto got = explorer().explore(d.graph(), cfg);
            expectIdentical(ref, got,
                            name + " faulted threads=" +
                                std::to_string(threads));
        }
    }
}

} // namespace
} // namespace dhdl::dse
