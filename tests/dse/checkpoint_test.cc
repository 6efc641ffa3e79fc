/**
 * The durable checkpoint format: atomic write protocol, header
 * identity validation, per-record CRC recovery (torn tail vs mid-file
 * corruption), v1 legacy compatibility, and diagnostic fidelity of
 * restored failures.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "core/faultinject.hh"
#include "dse/checkpoint.hh"
#include "dse/explorer.hh"
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

std::string
slurp(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void
spit(const std::string& path, const std::string& bytes)
{
    std::ofstream os(path, std::ios::trunc | std::ios::binary);
    os << bytes;
}

struct Sweep {
    Design design = apps::buildDotproduct({960000});
    ExploreConfig cfg;

    Sweep()
    {
        cfg.maxPoints = 60;
        cfg.seed = 1234;
    }

    ExploreResult explore() const
    {
        return explorer().explore(design.graph(), cfg);
    }

    CheckpointMeta meta(const ExploreResult& ref) const
    {
        ParamSpace space(design.graph());
        return makeCheckpointMeta(design.graph(), space, cfg.seed,
                                  ref.points.size());
    }
};

class CheckpointTest : public ::testing::Test
{
  protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override
    {
        fault::reset();
        std::remove(path().c_str());
        for (const std::string& t : temps())
            std::remove(t.c_str());
    }
    std::string path() const
    {
        return ::testing::TempDir() + "dhdl_ckpt_test.ckpt";
    }
    /** Every `<path>.tmp.*` file, whoever wrote it. */
    std::vector<std::string> temps() const
    {
        namespace fs = std::filesystem;
        const std::string prefix =
            fs::path(path()).filename().string() + ".tmp";
        std::vector<std::string> out;
        std::error_code ec;
        for (const auto& e :
             fs::directory_iterator(fs::path(path()).parent_path(), ec))
            if (e.path().filename().string().rfind(prefix, 0) == 0)
                out.push_back(e.path().string());
        return out;
    }
};

TEST_F(CheckpointTest, RoundTripRestoresEveryPointExactly)
{
    Sweep run;
    auto ref = run.explore();
    const CheckpointMeta meta = run.meta(ref);
    ASSERT_TRUE(writeCheckpointFile(path(), meta, ref.points));
    // The atomic protocol leaves no temp file behind.
    EXPECT_EQ(temps(), std::vector<std::string>{});

    // Restore into a fresh copy of the same sample set.
    run.cfg.checkpointPath = path();
    run.cfg.resume = true;
    auto res = run.explore();
    EXPECT_EQ(res.stats.resumed, ref.stats.evaluated);
    EXPECT_EQ(res.stats.ckptTruncated, 0u);
    EXPECT_EQ(res.stats.ckptCorrupt, 0u);
    EXPECT_EQ(renderCheckpoint(meta, res.points),
              renderCheckpoint(meta, ref.points));
    EXPECT_EQ(res.pareto, ref.pareto);
}

TEST_F(CheckpointTest, WriteRemovesTemporariesOfDeadWritersOnly)
{
    // A writer killed between creating and renaming its temporary
    // leaves `<path>.tmp.<pid>.<seq>`; the next write removes it. A
    // live writer's temporary (this process's, say) is left alone.
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0)
        ::_exit(0);
    ASSERT_EQ(::waitpid(child, nullptr, 0), child);
    const std::string dead =
        path() + ".tmp." + std::to_string(child) + ".0";
    const std::string live =
        path() + ".tmp." + std::to_string(::getpid()) + ".999999";
    std::ofstream(dead) << "torn";
    std::ofstream(live) << "in flight";

    Sweep run;
    auto ref = run.explore();
    ASSERT_TRUE(writeCheckpointFile(path(), run.meta(ref), ref.points));
    EXPECT_EQ(temps(), std::vector<std::string>{live});
}

TEST_F(CheckpointTest, TornTailIsTruncatedAndReEvaluated)
{
    Sweep run;
    auto ref = run.explore();
    const CheckpointMeta meta = run.meta(ref);
    ASSERT_TRUE(writeCheckpointFile(path(), meta, ref.points));

    // Cut the final record in half — the file a writer killed
    // mid-append would leave.
    std::string bytes = slurp(path());
    const size_t lastNl = bytes.rfind('\n', bytes.size() - 2);
    ASSERT_NE(lastNl, std::string::npos);
    spit(path(), bytes.substr(0, lastNl + 1 +
                                      (bytes.size() - lastNl) / 2));

    run.cfg.checkpointPath = path();
    run.cfg.resume = true;
    auto res = run.explore();
    EXPECT_EQ(res.stats.ckptTruncated, 1u);
    EXPECT_EQ(res.stats.ckptCorrupt, 0u);
    EXPECT_EQ(res.stats.resumed, ref.stats.evaluated - 1);
    // The torn point re-evaluates; the result converges exactly.
    EXPECT_EQ(res.stats.evaluated, ref.stats.evaluated);
    EXPECT_EQ(renderCheckpoint(meta, res.points),
              renderCheckpoint(meta, ref.points));
    EXPECT_EQ(res.pareto, ref.pareto);
}

TEST_F(CheckpointTest, MidFileCorruptionIsSkippedAndCounted)
{
    Sweep run;
    auto ref = run.explore();
    const CheckpointMeta meta = run.meta(ref);
    ASSERT_TRUE(writeCheckpointFile(path(), meta, ref.points));

    // Flip one byte in the first data record (line 4 of the file).
    std::string bytes = slurp(path());
    size_t pos = 0;
    for (int nl = 0; nl < 3; ++nl)
        pos = bytes.find('\n', pos) + 1;
    bytes[pos] = bytes[pos] == 'x' ? 'y' : 'x';
    spit(path(), bytes);

    run.cfg.checkpointPath = path();
    run.cfg.resume = true;
    auto res = run.explore();
    EXPECT_EQ(res.stats.ckptCorrupt, 1u);
    EXPECT_EQ(res.stats.ckptTruncated, 0u);
    EXPECT_EQ(res.stats.resumed, ref.stats.evaluated - 1);
    EXPECT_EQ(res.stats.evaluated, ref.stats.evaluated);
    EXPECT_EQ(renderCheckpoint(meta, res.points),
              renderCheckpoint(meta, ref.points));
}

TEST_F(CheckpointTest, MismatchedIdentityIsRefusedStructurally)
{
    Sweep run;
    auto ref = run.explore();
    const CheckpointMeta meta = run.meta(ref);
    ASSERT_TRUE(writeCheckpointFile(path(), meta, ref.points));

    // Same file, different seed: the load must refuse outright.
    CheckpointMeta other = meta;
    other.seed = meta.seed + 1;
    std::vector<DesignPoint> fresh(ref.points.size());
    for (size_t i = 0; i < fresh.size(); ++i)
        fresh[i].binding = ref.points[i].binding;
    DiagSink sink;
    CheckpointLoadStats ls;
    Status st = loadCheckpointFile(path(), run.design.graph(), other,
                                   fresh, sink, &ls);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.diag().code, DiagCode::CheckpointMismatch);
    EXPECT_EQ(ls.restored, 0u);
    for (const auto& p : fresh)
        EXPECT_FALSE(p.evaluated);

    // A different design hash is refused the same way.
    CheckpointMeta wrongDesign = meta;
    wrongDesign.designHash ^= 1;
    Status st2 = loadCheckpointFile(path(), run.design.graph(),
                                    wrongDesign, fresh, sink);
    ASSERT_FALSE(st2.ok());
    EXPECT_EQ(st2.diag().code, DiagCode::CheckpointMismatch);
}

TEST_F(CheckpointTest, MissingFileIsIoErrorNotMismatch)
{
    Sweep run;
    auto ref = run.explore();
    std::vector<DesignPoint> fresh(ref.points.size());
    DiagSink sink;
    Status st = loadCheckpointFile(path() + ".nope",
                                   run.design.graph(), run.meta(ref),
                                   fresh, sink);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.diag().code, DiagCode::CheckpointIo);
}

TEST_F(CheckpointTest, LegacyV1FileStillLoads)
{
    Sweep run;
    auto ref = run.explore();
    const CheckpointMeta meta = run.meta(ref);

    // Author the v1 format by hand: no CRC, no design/space hashes,
    // no failstage column.
    std::ostringstream os;
    os << "# dhdl-explore-checkpoint v1\n";
    os << "# seed=" << meta.seed << " total=" << meta.total
       << " nparams=" << meta.nparams << "\n";
    os << std::setprecision(17);
    for (size_t i = 0; i < ref.points.size(); ++i) {
        const auto& p = ref.points[i];
        if (!p.evaluated)
            continue;
        os << i << "," << (p.valid ? 1 : 0) << ","
           << (p.failed ? 1 : 0) << "," << diagCodeName(p.failCode)
           << "," << p.area.alms << "," << p.area.luts << ","
           << p.area.regs << "," << p.area.dsps << ","
           << p.area.brams << "," << p.cycles << ",";
        for (size_t j = 0; j < p.binding.values.size(); ++j)
            os << (j ? " " : "") << p.binding.values[j];
        os << "," << p.failReason << "\n";
    }
    spit(path(), os.str());

    run.cfg.checkpointPath = path();
    run.cfg.resume = true;
    auto res = run.explore();
    EXPECT_EQ(res.stats.resumed, ref.stats.evaluated);
    EXPECT_EQ(renderCheckpoint(meta, res.points),
              renderCheckpoint(meta, ref.points));
}

TEST_F(CheckpointTest, LegacyV1MalformedTrailingLineIsSkipped)
{
    Sweep run;
    auto ref = run.explore();
    const CheckpointMeta meta = run.meta(ref);
    std::ostringstream os;
    os << "# dhdl-explore-checkpoint v1\n";
    os << "# seed=" << meta.seed << " total=" << meta.total
       << " nparams=" << meta.nparams << "\n";
    os << "0,1,0,ok,1,1"; // torn v1 record: too few fields
    spit(path(), os.str());

    run.cfg.checkpointPath = path();
    run.cfg.resume = true;
    auto res = run.explore();
    // Skip-and-count, never abort: the malformed line is dropped,
    // the run completes in full.
    EXPECT_EQ(res.stats.resumed, 0u);
    EXPECT_EQ(res.stats.ckptTruncated, 1u);
    EXPECT_EQ(res.stats.evaluated, res.stats.total);
}

TEST_F(CheckpointTest, RestoredFailureDiagsMatchLiveRun)
{
    Sweep run;
    // Deterministically fail two points inside the isolation
    // boundary, in both the reference run and the resumed run.
    run.cfg.preEvaluate = [](const ParamBinding&, size_t idx) {
        if (idx == 3 || idx == 11)
            fatal("injected fault at point " + std::to_string(idx),
                  DiagCode::AreaEstimationFailed);
    };
    auto ref = run.explore();
    ASSERT_EQ(ref.stats.failed, 2u);
    const CheckpointMeta meta = run.meta(ref);
    ASSERT_TRUE(writeCheckpointFile(path(), meta, ref.points));

    Sweep resumed;
    resumed.cfg.checkpointPath = path();
    resumed.cfg.resume = true;
    // No preEvaluate hook: the failures must come back from the
    // checkpoint alone, byte-identical in canonical form.
    auto res = resumed.explore();
    EXPECT_EQ(res.stats.resumed, ref.stats.evaluated);
    EXPECT_EQ(res.stats.failed, 2u);
    EXPECT_EQ(canonicalDiags(res.diags), canonicalDiags(ref.diags));
    EXPECT_EQ(renderCheckpoint(meta, res.points),
              renderCheckpoint(meta, ref.points));
}

TEST_F(CheckpointTest, InjectedTornWriteIsRecoveredOnResume)
{
    Sweep run;
    auto ref = run.explore();
    const CheckpointMeta meta = run.meta(ref);

    // The harness tears the first checkpoint write mid-record (and
    // bypasses the atomic rename, as a killed non-atomic writer
    // would).
    fault::configure("torn-checkpoint=1");
    ASSERT_TRUE(writeCheckpointFile(path(), meta, ref.points));
    fault::reset();

    run.cfg.checkpointPath = path();
    run.cfg.resume = true;
    auto res = run.explore();
    EXPECT_EQ(res.stats.ckptTruncated, 1u);
    EXPECT_EQ(res.stats.evaluated, ref.stats.evaluated);
    EXPECT_EQ(renderCheckpoint(meta, res.points),
              renderCheckpoint(meta, ref.points));
}

TEST_F(CheckpointTest, InjectedRecordCorruptionIsRecoveredOnResume)
{
    Sweep run;
    auto ref = run.explore();
    const CheckpointMeta meta = run.meta(ref);

    fault::configure("corrupt-record=2");
    ASSERT_TRUE(writeCheckpointFile(path(), meta, ref.points));
    fault::reset();

    run.cfg.checkpointPath = path();
    run.cfg.resume = true;
    auto res = run.explore();
    EXPECT_EQ(res.stats.ckptCorrupt, 1u);
    EXPECT_EQ(res.stats.evaluated, ref.stats.evaluated);
    EXPECT_EQ(renderCheckpoint(meta, res.points),
              renderCheckpoint(meta, ref.points));
}

} // namespace
} // namespace dhdl::dse
