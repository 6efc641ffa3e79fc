#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "core/checksum.hh"
#include "estimate/area_estimator.hh"
#include "obs/trace.hh"

namespace dhdl::est {
namespace {

TEST(PersistTest, CalibrationRoundTripPreservesEstimates)
{
    const AreaEstimator& orig = calibratedEstimator();
    std::stringstream ss;
    orig.save(ss);
    AreaEstimator back(orig.device(), ss);

    for (uint64_t s : {11ull, 222ull, 3333ull}) {
        auto ts = fpga::randomTemplateList(orig.device(), s);
        auto a = orig.estimateList(ts);
        auto b = back.estimateList(ts);
        EXPECT_DOUBLE_EQ(a.alms, b.alms);
        EXPECT_DOUBLE_EQ(a.brams, b.brams);
        EXPECT_DOUBLE_EQ(a.dsps, b.dsps);
        EXPECT_DOUBLE_EQ(a.routeLuts, b.routeLuts);
        EXPECT_DOUBLE_EQ(a.dupRegs, b.dupRegs);
    }
}

TEST(PersistTest, AreaModelRoundTrip)
{
    const AreaModel& m = calibratedEstimator().model();
    std::stringstream ss;
    m.save(ss);
    AreaModel back = AreaModel::load(ss);
    EXPECT_EQ(back.numClasses(), m.numClasses());

    TemplateInst t;
    t.tkind = TemplateKind::PrimOp;
    t.op = Op::Mul;
    t.isFloat = true;
    t.bits = 32;
    t.lanes = 5;
    auto a = m.cost(t);
    auto b = back.cost(t);
    EXPECT_DOUBLE_EQ(a.totalLuts(), b.totalLuts());
    EXPECT_DOUBLE_EQ(a.dsps, b.dsps);
}

TEST(PersistTest, CorruptHeaderIsFatal)
{
    std::stringstream ss("nonsense v9\n");
    EXPECT_THROW(AreaEstimator(fpga::Device::maia(), ss), FatalError);
}

TEST(PersistTest, TruncatedCalibrationIsFatal)
{
    const AreaEstimator& orig = calibratedEstimator();
    std::stringstream ss;
    orig.save(ss);
    std::string full = ss.str();
    std::stringstream cut(full.substr(0, full.size() / 2));
    EXPECT_THROW(AreaEstimator(orig.device(), cut), FatalError);
}

TEST(PersistTest, CalibrationBytesArePinned)
{
    // CRC-32 of the saved default calibration (template models, the
    // three trained effect networks, scalers, BRAM fit, packing rate),
    // recorded from the reference per-sample trainer. Any change to
    // the calibration arithmetic that is not bit-identical moves it.
    std::ostringstream os;
    calibratedEstimator().save(os);
    EXPECT_EQ(crc32(os.str()), 0x8adad141u)
        << "calibration bytes changed (" << os.str().size()
        << " bytes)";
}

TEST(PersistTest, CalibrationSpansNestAndLeaveBytesUnchanged)
{
    auto calibrate = [](bool traced) {
        const bool was = obs::enabled();
        obs::setEnabled(traced);
        AreaEstimator est(defaultToolchain());
        obs::setEnabled(was);
        std::ostringstream os;
        est.save(os);
        return os.str();
    };
    const std::string off = calibrate(false);
    obs::resetTrace();
    EXPECT_EQ(calibrate(true), off);

    // name -> (start, duration) of this thread's "estimate" spans.
    std::ostringstream trace;
    obs::writeChromeTrace(trace);
    std::map<std::string, std::pair<uint64_t, uint64_t>> spans;
    std::istringstream lines(trace.str());
    const std::string tag = "\"cat\":\"estimate\",\"name\":\"";
    for (std::string line; std::getline(lines, line);) {
        const size_t at = line.find(tag);
        if (at == std::string::npos)
            continue;
        const size_t name = at + tag.size();
        const size_t ts = line.find("\"ts\":", name);
        const size_t dur = line.find("\"dur\":", name);
        ASSERT_NE(ts, std::string::npos);
        ASSERT_NE(dur, std::string::npos);
        spans[line.substr(name, line.find('"', name) - name)] = {
            std::stoull(line.substr(ts + 5)),
            std::stoull(line.substr(dur + 6))};
    }
    ASSERT_EQ(spans.count("calibrate"), 1u) << trace.str();
    const auto [t0, d0] = spans["calibrate"];
    for (const char* child :
         {"characterize", "design-samples", "train-ann", "pack-rate"}) {
        ASSERT_EQ(spans.count(child), 1u) << child;
        const auto [t, d] = spans[child];
        EXPECT_GE(t, t0) << child;
        EXPECT_LE(t + d, t0 + d0) << child;
    }
}

} // namespace
} // namespace dhdl::est
