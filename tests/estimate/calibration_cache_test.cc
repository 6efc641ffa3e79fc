/**
 * @file
 * The on-disk calibration cache behind AreaEstimator(tc, ...): miss,
 * store and hit; bad entries warned about, recomputed and rewritten;
 * an unusable directory; racing writers; the key; spans and counters.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "core/checksum.hh"
#include "estimate/area_estimator.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace dhdl::est {
namespace {

namespace fs = std::filesystem;

/** Fewer training designs than the default keep each miss cheap. */
constexpr int kTrain = 40;

std::string
saved(const AreaEstimator& e)
{
    std::ostringstream os;
    e.save(os);
    return os.str();
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
spit(const std::string& path, const std::string& text)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/** Points XDG_CACHE_HOME (and HOME) at a fresh directory per test. */
class CalibrationCache : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        for (const char* var : {"XDG_CACHE_HOME", "HOME"}) {
            const char* v = std::getenv(var);
            saved_[var] = v ? std::optional<std::string>(v) : std::nullopt;
        }
        std::string tmpl =
            (fs::temp_directory_path() / "dhdl-calib-test-XXXXXX")
                .string();
        ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
        root_ = tmpl;
        ::setenv("XDG_CACHE_HOME", root_.c_str(), 1);
    }

    void
    TearDown() override
    {
        for (const auto& [var, v] : saved_) {
            if (v)
                ::setenv(var.c_str(), v->c_str(), 1);
            else
                ::unsetenv(var.c_str());
        }
        std::error_code ec;
        fs::remove_all(root_, ec);
    }

    const fpga::VendorToolchain& tc() { return defaultToolchain(); }

    std::string
    entry()
    {
        return root_ + "/dhdl/calibration-" +
               calibrationKey(tc(), kTrain, 0xA11CE) + ".txt";
    }

    std::vector<std::string>
    files()
    {
        std::vector<std::string> out;
        for (const auto& f : fs::directory_iterator(root_ + "/dhdl"))
            out.push_back(f.path().filename().string());
        return out;
    }

    std::string root_;
    std::map<std::string, std::optional<std::string>> saved_;
};

TEST_F(CalibrationCache, MissStoresThenHitLoadsTheSameBytes)
{
    const AreaEstimator miss(tc(), kTrain);
    EXPECT_EQ(miss.calibration().source, CalibrationSource::Miss);
    EXPECT_EQ(miss.calibration().path, entry());
    EXPECT_FALSE(miss.calibration().warning);

    const AreaEstimator hit(tc(), kTrain);
    EXPECT_EQ(hit.calibration().source, CalibrationSource::Hit);
    EXPECT_EQ(hit.calibration().key, miss.calibration().key);
    EXPECT_EQ(saved(hit), saved(miss));
    EXPECT_EQ(saved(AreaEstimator::compute(tc(), kTrain)), saved(miss));

    // The entry is a header (key + CRC-32 of the body) over save().
    const std::string body = saved(miss);
    char crc[9];
    std::snprintf(crc, sizeof crc, "%08x", unsigned(crc32(body)));
    EXPECT_EQ(slurp(entry()), "# dhdl-calibration v1 key=" +
                                  miss.calibration().key + " crc32=" +
                                  crc + "\n" + body);
    EXPECT_EQ(files().size(), 1u);
}

TEST_F(CalibrationCache, BadEntriesAreWarnedRecomputedAndRewritten)
{
    const std::string good = [&] {
        AreaEstimator first(tc(), kTrain);
        return slurp(entry());
    }();
    const size_t nl = good.find('\n');
    const std::string body = good.substr(nl + 1);
    std::string flipped = good;
    flipped[nl + body.size() / 2] ^= 0x01;
    std::string foreign = good;
    foreign.replace(good.find("key=") + 4, 16, "0123456789abcdef");
    char crc[9];
    std::snprintf(crc, sizeof crc, "%08x",
                  unsigned(crc32("area_estimator v9\n")));
    const std::string unparsable =
        good.substr(0, good.find("crc32=") + 6) + crc +
        "\narea_estimator v9\n";

    const std::map<std::string, std::string> bad = {
        {"truncated", good.substr(0, good.size() / 2)},
        {"flipped byte", flipped},
        {"foreign key", foreign},
        {"unparsable body", unparsable},
        {"empty", ""},
    };
    for (const auto& [what, text] : bad) {
        SCOPED_TRACE(what);
        spit(entry(), text);
        const AreaEstimator e(tc(), kTrain);
        EXPECT_EQ(e.calibration().source, CalibrationSource::Recomputed);
        ASSERT_TRUE(e.calibration().warning);
        const Diag& w = *e.calibration().warning;
        EXPECT_EQ(w.severity, DiagSeverity::Warning);
        EXPECT_EQ(w.code, DiagCode::CalibrationCache);
        EXPECT_NE(w.message.find(entry()), std::string::npos);
        EXPECT_EQ(slurp(entry()), good);
        EXPECT_EQ(AreaEstimator(tc(), kTrain).calibration().source,
                  CalibrationSource::Hit);
    }
}

TEST_F(CalibrationCache, UnusableDirectoryComputesWithoutThrowing)
{
    // A regular file where the directory should be: no mkdir can
    // succeed, whatever the process's privileges.
    const std::string blocker = root_ + "/not-a-dir";
    spit(blocker, "x");
    ::setenv("XDG_CACHE_HOME", blocker.c_str(), 1);
    EXPECT_EQ(calibrationCacheDir(), "");
    const AreaEstimator e(tc(), kTrain);
    EXPECT_EQ(e.calibration().source, CalibrationSource::Miss);
    EXPECT_EQ(e.calibration().path, "");
    EXPECT_EQ(storeCalibration(e), "");
    EXPECT_EQ(saved(e), saved(AreaEstimator::compute(tc(), kTrain)));
}

TEST_F(CalibrationCache, RelativeXdgFallsBackToHomeCache)
{
    ::setenv("XDG_CACHE_HOME", "relative/cache", 1);
    ::setenv("HOME", root_.c_str(), 1);
    EXPECT_EQ(calibrationCacheDir(), root_ + "/.cache/dhdl");
    EXPECT_TRUE(fs::is_directory(root_ + "/.cache/dhdl"));
}

TEST_F(CalibrationCache, TwoThreadsMissingAtOnceLeaveOneValidFile)
{
    std::string a, b;
    std::thread ta([&] { a = saved(AreaEstimator(tc(), kTrain)); });
    std::thread tb([&] { b = saved(AreaEstimator(tc(), kTrain)); });
    ta.join();
    tb.join();
    EXPECT_EQ(a, b);
    EXPECT_EQ(files(), std::vector<std::string>{fs::path(entry())
                                                    .filename()
                                                    .string()});
    const AreaEstimator hit(tc(), kTrain);
    EXPECT_EQ(hit.calibration().source, CalibrationSource::Hit);
    EXPECT_EQ(saved(hit), a);
}

TEST_F(CalibrationCache, KeyCoversEveryInput)
{
    const std::string key = calibrationKey(tc(), kTrain, 0xA11CE);
    EXPECT_EQ(key.size(), 16u);
    EXPECT_EQ(calibrationKey(tc(), kTrain, 0xA11CE), key);
    EXPECT_NE(calibrationKey(tc(), kTrain + 1, 0xA11CE), key);
    EXPECT_NE(calibrationKey(tc(), kTrain, 0xA11CF), key);
    fpga::Device dev = tc().device();
    EXPECT_EQ(calibrationKey(fpga::VendorToolchain(dev), kTrain,
                             0xA11CE),
              key);
    EXPECT_NE(calibrationKey(fpga::VendorToolchain(dev, 7), kTrain,
                             0xA11CE),
              key);
    dev.achievedBwGBs += 1e-9;
    EXPECT_NE(calibrationKey(fpga::VendorToolchain(dev), kTrain,
                             0xA11CE),
              key);
}

/** Spans per name of the "estimate" category in the current trace. */
std::map<std::string, int>
estimateSpans()
{
    std::ostringstream trace;
    obs::writeChromeTrace(trace);
    std::map<std::string, int> spans;
    const std::string tag = "\"cat\":\"estimate\",\"name\":\"";
    const std::string text = trace.str();
    for (size_t at = text.find(tag); at != std::string::npos;
         at = text.find(tag, at + 1)) {
        const size_t name = at + tag.size();
        ++spans[text.substr(name, text.find('"', name) - name)];
    }
    return spans;
}

TEST_F(CalibrationCache, SpansAndCountersNameTheSource)
{
    const bool was = obs::enabled();
    obs::setEnabled(true);
    obs::resetMetrics();

    obs::resetTrace();
    AreaEstimator(tc(), kTrain);
    auto spans = estimateSpans();
    EXPECT_EQ(spans["calibrate"], 1);
    for (const char* child : {"characterize", "design-samples",
                              "train-ann", "pack-rate", "store"})
        EXPECT_EQ(spans[child], 1) << child;
    EXPECT_EQ(spans["load"], 0);

    obs::resetTrace();
    AreaEstimator(tc(), kTrain);
    spans = estimateSpans();
    EXPECT_EQ(spans["calibrate"], 1);
    EXPECT_EQ(spans["load"], 1);
    EXPECT_EQ(spans["train-ann"], 0);
    EXPECT_EQ(spans["store"], 0);

    spit(entry(), "garbage\n");
    AreaEstimator(tc(), kTrain);

    const auto snap = obs::snapshotMetrics();
    EXPECT_EQ(snap.counter("estimate.calibration.miss"), 1u);
    EXPECT_EQ(snap.counter("estimate.calibration.hit"), 1u);
    EXPECT_EQ(snap.counter("estimate.calibration.recomputed"), 1u);
    obs::setEnabled(was);
}

} // namespace
} // namespace dhdl::est
