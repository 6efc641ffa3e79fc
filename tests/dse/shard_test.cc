/**
 * Sharded exploration: deterministic partition of the global sample
 * set, and the central property — merging N shard checkpoints is
 * byte-identical to the unsharded run, for N in {1, 2, 4, 8}, with
 * and without injected failures and crash/recovery cycles.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "apps/apps.hh"
#include "core/faultinject.hh"
#include "dse/shard.hh"

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
baseConfig()
{
    ExploreConfig cfg;
    cfg.maxPoints = 60;
    cfg.seed = 4321;
    return cfg;
}

std::string
basePath()
{
    return ::testing::TempDir() + "dhdl_shard_test.ckpt";
}

void
cleanShards(int maxN)
{
    for (int n = 1; n <= maxN; ++n) {
        for (int i = 0; i < n; ++i)
            std::remove(
                shardCheckpointPath(basePath(), i, n).c_str());
    }
}

/** Run shard i/N as explore() would under `dhdlc --shard i/N`. */
ExploreResult
runShard(const Design& d, ExploreConfig cfg, int i, int n)
{
    cfg.shardIndex = i;
    cfg.shardCount = n;
    cfg.checkpointPath = shardCheckpointPath(basePath(), i, n);
    cfg.resume = true;
    return explorer().explore(d.graph(), cfg);
}

TEST(ShardSpecTest, ParsesWellFormedSpecs)
{
    ShardSpec s;
    ASSERT_TRUE(parseShard("0/1", s).ok());
    EXPECT_EQ(s.index, 0);
    EXPECT_EQ(s.count, 1);
    EXPECT_FALSE(s.isSharded());
    ASSERT_TRUE(parseShard("3/8", s).ok());
    EXPECT_EQ(s.index, 3);
    EXPECT_EQ(s.count, 8);
    EXPECT_TRUE(s.isSharded());
}

TEST(ShardSpecTest, RejectsMalformedSpecs)
{
    ShardSpec s;
    for (const char* bad :
         {"", "3", "/4", "3/", "a/4", "3/b", "-1/4", "4/4", "5/4",
          "3/0", "1/0", "1234567890123/4"})
        EXPECT_FALSE(parseShard(bad, s).ok()) << "'" << bad << "'";
}

TEST(ShardSpecTest, StridePartitionIsExactAndComplete)
{
    for (int n : {1, 2, 4, 8}) {
        std::set<size_t> covered;
        for (int i = 0; i < n; ++i) {
            ShardSpec s{i, n};
            for (size_t idx = 0; idx < 100; ++idx) {
                if (inShard(idx, s)) {
                    // No index belongs to two shards.
                    EXPECT_TRUE(covered.insert(idx).second);
                }
            }
        }
        EXPECT_EQ(covered.size(), 100u); // no index is orphaned
    }
}

TEST(ShardSpecTest, CheckpointPathsAreDistinctPerShard)
{
    std::set<std::string> paths;
    for (int i = 0; i < 8; ++i)
        paths.insert(shardCheckpointPath("base.ckpt", i, 8));
    EXPECT_EQ(paths.size(), 8u);
    EXPECT_EQ(shardCheckpointPath("b", 2, 4), "b.shard-2-of-4");
}

/**
 * The property: for every shard count, run the shards independently
 * and assert the merged result is byte-identical to the unsharded
 * golden run — checkpoint serialization, canonical diagnostics, and
 * Pareto front.
 */
void
checkMergeEqualsUnsharded(const ExploreConfig& base,
                          const Design& d,
                          const ExploreResult& unsharded)
{
    ParamSpace space(d.graph());
    const CheckpointMeta meta = makeCheckpointMeta(
        d.graph(), space, base.seed, unsharded.points.size());
    const std::string golden =
        renderCheckpoint(meta, unsharded.points);

    for (int n : {1, 2, 4, 8}) {
        size_t notInShard = 0;
        for (int i = 0; i < n; ++i) {
            auto res = runShard(d, base, i, n);
            notInShard += res.stats.notInShard;
            EXPECT_EQ(res.stats.total, unsharded.stats.total);
        }
        // Each point was out-of-shard for exactly n-1 of the n runs.
        EXPECT_EQ(notInShard,
                  unsharded.stats.total * size_t(n - 1));

        auto merged = mergeShards(d.graph(), base, n, basePath());
        EXPECT_TRUE(merged.complete()) << "n=" << n;
        EXPECT_EQ(merged.meta, meta);
        EXPECT_EQ(renderCheckpoint(meta, merged.result.points),
                  golden)
            << "merged checkpoint differs from unsharded, n=" << n;
        EXPECT_EQ(canonicalDiags(merged.result.diags),
                  canonicalDiags(unsharded.diags))
            << "merged diags differ from unsharded, n=" << n;
        EXPECT_EQ(merged.result.pareto, unsharded.pareto);
        EXPECT_EQ(merged.result.stats.evaluated,
                  unsharded.stats.evaluated);
        cleanShards(n);
    }
}

TEST(ShardMergeTest, MergeIsByteIdenticalToUnsharded)
{
    Design d = apps::buildDotproduct({960000});
    auto base = baseConfig();
    cleanShards(8);
    auto unsharded = explorer().explore(d.graph(), base);
    checkMergeEqualsUnsharded(base, d, unsharded);
}

TEST(ShardMergeTest, MergeIsByteIdenticalWithFailedPoints)
{
    // Same property with per-point failures in the mix: failures are
    // data (checkpointed, restored, merged), not control flow.
    Design d = apps::buildDotproduct({960000});
    auto base = baseConfig();
    base.preEvaluate = [](const ParamBinding&, size_t idx) {
        if (idx % 7 == 3)
            fatal("injected fault at point " + std::to_string(idx),
                  DiagCode::RuntimeEstimationFailed);
    };
    cleanShards(8);
    auto unsharded = explorer().explore(d.graph(), base);
    ASSERT_GT(unsharded.stats.failed, 0u);
    checkMergeEqualsUnsharded(base, d, unsharded);
}

TEST(ShardMergeTest, CrashedShardRecoversAndMergeConverges)
{
    Design d = apps::buildDotproduct({960000});
    auto base = baseConfig();
    cleanShards(4);
    auto unsharded = explorer().explore(d.graph(), base);
    ParamSpace space(d.graph());
    const CheckpointMeta meta = makeCheckpointMeta(
        d.graph(), space, base.seed, unsharded.points.size());

    const int n = 4;
    for (int i = 0; i < n; ++i) {
        if (i == 1) {
            // Shard 1 "crashes": its only checkpoint write tears
            // mid-record, exactly what a SIGKILLed writer leaves.
            fault::configure("torn-checkpoint=1");
            runShard(d, base, i, n);
            fault::reset();
            // Re-run with resume: it repairs the torn tail
            // and completes the shard.
            auto retry = runShard(d, base, i, n);
            EXPECT_EQ(retry.stats.ckptTruncated, 1u);
        } else {
            runShard(d, base, i, n);
        }
    }
    auto merged = mergeShards(d.graph(), base, n, basePath());
    EXPECT_TRUE(merged.complete());
    EXPECT_EQ(renderCheckpoint(meta, merged.result.points),
              renderCheckpoint(meta, unsharded.points));
    EXPECT_EQ(canonicalDiags(merged.result.diags),
              canonicalDiags(unsharded.diags));
    EXPECT_EQ(merged.result.pareto, unsharded.pareto);
    cleanShards(n);
}

TEST(ShardMergeTest, MissingShardDegradesToExplicitPartialMerge)
{
    Design d = apps::buildDotproduct({960000});
    auto base = baseConfig();
    const int n = 4;
    cleanShards(n);
    for (int i = 0; i < n; ++i) {
        if (i != 2)
            runShard(d, base, i, n);
    }
    auto merged = mergeShards(d.graph(), base, n, basePath());
    EXPECT_FALSE(merged.complete());
    ASSERT_EQ(merged.missingShards.size(), 1u);
    EXPECT_EQ(merged.missingShards[0], 2);
    // Shard 2's points stay un-evaluated; everything else merged.
    EXPECT_GT(merged.result.stats.evaluated, 0u);
    EXPECT_EQ(merged.result.stats.skipped,
              merged.result.stats.total -
                  merged.result.stats.evaluated);
    for (size_t idx = 0; idx < merged.result.points.size(); ++idx) {
        EXPECT_EQ(merged.result.points[idx].evaluated,
                  int(idx % n) != 2);
    }
    // The degradation is reported, not silent.
    bool reported = false;
    for (const auto& dg : merged.result.diags)
        reported |= dg.code == DiagCode::ShardFailed &&
                    dg.severity == DiagSeverity::Warning;
    EXPECT_TRUE(reported);
    cleanShards(n);
}

TEST(ShardMergeTest, ForeignShardCheckpointIsRefusedIntoMerge)
{
    Design d = apps::buildDotproduct({960000});
    auto base = baseConfig();
    const int n = 2;
    cleanShards(n);
    runShard(d, base, 0, n);
    // Shard 1's file was written by a different seed: the merge must
    // refuse it (missing shard), never silently mix sample sets.
    auto other = base;
    other.seed = base.seed + 99;
    runShard(d, other, 1, n);
    auto merged = mergeShards(d.graph(), base, n, basePath());
    EXPECT_FALSE(merged.complete());
    ASSERT_EQ(merged.missingShards.size(), 1u);
    EXPECT_EQ(merged.missingShards[0], 1);
    cleanShards(n);
}

TEST(ShardTest, ExplorerRejectsInvalidShardConfig)
{
    Design d = apps::buildDotproduct({960000});
    ExploreConfig cfg = baseConfig();
    cfg.shardIndex = 4;
    cfg.shardCount = 4;
    EXPECT_THROW(explorer().explore(d.graph(), cfg), FatalError);
    cfg.shardIndex = -1;
    EXPECT_THROW(explorer().explore(d.graph(), cfg), FatalError);
}

} // namespace
} // namespace dhdl::dse
