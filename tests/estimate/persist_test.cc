#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <sstream>
#include <string>

#include "apps/apps.hh"
#include "core/checksum.hh"
#include "dse/explorer.hh"
#include "estimate/area_estimator.hh"
#include "estimate/runtime_estimator.hh"
#include "obs/trace.hh"

namespace dhdl::est {
namespace {

TEST(PersistTest, CalibrationRoundTripPreservesEstimates)
{
    // A computed calibration against its saved-and-loaded copy, as a
    // cache hit stands in for the computation everywhere. The copy
    // saves the same bytes (the template-model classes live in a hash
    // map whose order depends on insertion history), and every
    // explored point of all 8 apps agrees bit for bit.
    const AreaEstimator orig = AreaEstimator::compute(defaultToolchain());
    std::stringstream ss;
    orig.save(ss);
    AreaEstimator back(orig.device(), ss);
    std::ostringstream again;
    back.save(again);
    EXPECT_EQ(again.str(), ss.str());
    RuntimeEstimator rt;
    dse::Explorer a(orig, rt), b(back, rt);
    dse::ExploreConfig cfg;
    cfg.maxPoints = 1000;
    std::vector<std::pair<std::string, Design>> designs;
    for (const auto& app : apps::allApps())
        designs.emplace_back(app.name, app.build(0.5));
    designs.emplace_back("conv2d", apps::buildConv2d());
    auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
    const auto fields = {&AreaEstimate::alms,      &AreaEstimate::luts,
                         &AreaEstimate::regs,      &AreaEstimate::dsps,
                         &AreaEstimate::brams,     &AreaEstimate::routeLuts,
                         &AreaEstimate::dupRegs,   &AreaEstimate::unavailLuts,
                         &AreaEstimate::dupBrams};
    // The scalar path on random template lists...
    for (uint64_t s : {11ull, 222ull, 3333ull}) {
        const auto ts = fpga::randomTemplateList(orig.device(), s);
        const auto ea = orig.estimateList(ts);
        const auto eb = back.estimateList(ts);
        for (auto f : fields)
            EXPECT_EQ(bits(ea.*f), bits(eb.*f)) << s;
    }
    // ...and the batched explore path on every app.
    for (const auto& [name, d] : designs) {
        const auto ra = a.explore(d.graph(), cfg);
        const auto rb = b.explore(d.graph(), cfg);
        ASSERT_EQ(ra.points.size(), rb.points.size()) << name;
        for (size_t i = 0; i < ra.points.size(); ++i) {
            const auto& p = ra.points[i];
            const auto& q = rb.points[i];
            SCOPED_TRACE(name + " point " + std::to_string(i));
            ASSERT_EQ(p.evaluated, q.evaluated);
            ASSERT_EQ(p.failed, q.failed);
            ASSERT_EQ(p.valid, q.valid);
            for (auto f : fields)
                ASSERT_EQ(bits(p.area.*f), bits(q.area.*f));
            ASSERT_EQ(bits(p.cycles), bits(q.cycles));
        }
        EXPECT_EQ(ra.pareto, rb.pareto) << name;
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
        const AreaEstimator est = AreaEstimator::compute(defaultToolchain());
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
