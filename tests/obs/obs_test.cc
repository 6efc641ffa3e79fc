/**
 * Observability subsystem contract: thread-sharded counters merge
 * exactly on snapshot, histogram bucketing honors its edges
 * (lower_bound semantics: bucket b holds v <= bounds[b]), trace ring
 * buffers wrap by dropping oldest events (and say so), and the
 * Chrome-trace / metrics JSON exports are well-formed — verified by
 * parsing them back with the serving protocol's JSON codec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/json.hh"

namespace dhdl::obs {
namespace {

/** RAII: force recording on (or off) for one test, then restore. */
class ScopedEnable
{
  public:
    explicit ScopedEnable(bool on) : prev_(enabled())
    {
        setEnabled(on);
    }
    ~ScopedEnable() { setEnabled(prev_); }

  private:
    bool prev_;
};

// ------------------------------------------------------- JSON reading

using serve::Json;

/** An export parsed back with the serving codec; a parse error fails
 *  the test. */
Json
parseExport(const std::string& text)
{
    Json root;
    const Status st = serve::parseJson(text, root);
    EXPECT_TRUE(st.ok()) << st.diag().str();
    return root;
}

/** Member `key` of `j`; a missing one fails the test and reads as
 *  null. */
const Json&
at(const Json& j, const std::string& key)
{
    static const Json kMissing;
    const Json* v = j.find(key);
    EXPECT_NE(v, nullptr) << "missing key " << key;
    return v ? *v : kMissing;
}

// ------------------------------------------------------------- metrics

TEST(ObsMetricsTest, DisabledRecordingIsInvisible)
{
    ScopedEnable off(false);
    resetMetrics();
    Counter c("test.invisible");
    c.add(42);
    addCounter("test.invisible", 8);
    EXPECT_EQ(snapshotMetrics().counter("test.invisible"), 0u);
}

TEST(ObsMetricsTest, CounterHandlesWithSameNameShareTheMetric)
{
    ScopedEnable on(true);
    resetMetrics();
    Counter a("test.shared");
    Counter b("test.shared");
    a.add(3);
    b.add(4);
    EXPECT_EQ(snapshotMetrics().counter("test.shared"), 7u);
}

TEST(ObsMetricsTest, ShardsMergeExactlyUnderEightThreads)
{
    ScopedEnable on(true);
    resetMetrics();
    constexpr int kThreads = 8;
    constexpr int kAdds = 10000;
    Counter c("test.merge");
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&c] {
            for (int i = 0; i < kAdds; ++i)
                c.add(1);
        });
    }
    for (auto& t : pool)
        t.join();
    // Every thread shard contributes; nothing lost, nothing torn.
    EXPECT_EQ(snapshotMetrics().counter("test.merge"),
              uint64_t(kThreads) * kAdds);
}

TEST(ObsMetricsTest, HistogramBucketEdges)
{
    ScopedEnable on(true);
    resetMetrics();
    Histogram h("test.hist.edges", {10, 20});
    // Bucket b counts v <= bounds[b]; the last bucket is overflow.
    h.observe(0);
    h.observe(9);
    h.observe(10); // on the edge: still bucket 0
    h.observe(11);
    h.observe(20); // on the edge: still bucket 1
    h.observe(21); // overflow
    h.observe(1000);

    auto snap = snapshotMetrics();
    const HistogramSnapshot* hs = nullptr;
    for (const auto& s : snap.histograms) {
        if (s.name == "test.hist.edges")
            hs = &s;
    }
    ASSERT_NE(hs, nullptr);
    ASSERT_EQ(hs->bounds, (std::vector<uint64_t>{10, 20}));
    ASSERT_EQ(hs->counts.size(), 3u);
    EXPECT_EQ(hs->counts[0], 3u);
    EXPECT_EQ(hs->counts[1], 2u);
    EXPECT_EQ(hs->counts[2], 2u);
    EXPECT_EQ(hs->count, 7u);
    EXPECT_EQ(hs->sum, 0u + 9 + 10 + 11 + 20 + 21 + 1000);
}

TEST(ObsMetricsTest, GaugeSetWinsOverAdd)
{
    ScopedEnable on(true);
    resetMetrics();
    Gauge g("test.gauge");
    g.set(10);
    g.add(-3);
    auto snap = snapshotMetrics();
    bool found = false;
    for (const auto& [n, v] : snap.gauges) {
        if (n == "test.gauge") {
            found = true;
            EXPECT_EQ(v, 7);
        }
    }
    EXPECT_TRUE(found);
}

TEST(ObsMetricsTest, MetricsJsonRoundTrips)
{
    ScopedEnable on(true);
    resetMetrics();
    Counter("test.json.counter").add(5);
    Histogram("test.json.hist", {1, 2}).observe(2);
    Gauge("test.json.gauge").set(-4);

    std::ostringstream os;
    snapshotMetrics().writeJson(os);
    Json root = parseExport(os.str());

    EXPECT_DOUBLE_EQ(
        at(at(root, "counters"), "test.json.counter").asDouble(), 5.0);
    EXPECT_DOUBLE_EQ(
        at(at(root, "gauges"), "test.json.gauge").asDouble(), -4.0);
    const Json& h = at(at(root, "histograms"), "test.json.hist");
    EXPECT_DOUBLE_EQ(at(h, "count").asDouble(), 1.0);
    EXPECT_DOUBLE_EQ(at(h, "sum").asDouble(), 2.0);
    ASSERT_EQ(at(h, "counts").items().size(), 3u);
}

// ------------------------------------------------------------- tracing

TEST(ObsTraceTest, RingBufferWrapsByDroppingOldest)
{
    ScopedEnable on(true);
    resetTrace();
    setRingCapacity(64); // clamps at the documented minimum

    // A fresh thread gets a fresh (lazily sized) ring, so this test
    // controls its capacity regardless of what earlier tests did on
    // the main thread.
    std::thread t([] {
        for (int i = 0; i < 100; ++i)
            recordSpan("test", "wrap", uint64_t(i), 1, i);
    });
    t.join();

    TraceStats s = traceStats();
    EXPECT_EQ(s.recorded, 100u);
    EXPECT_EQ(s.retained, 64u);
    EXPECT_EQ(s.dropped, 36u);

    // The export keeps the newest events and reports the loss.
    std::ostringstream os;
    writeChromeTrace(os);
    Json root = parseExport(os.str());
    EXPECT_DOUBLE_EQ(
        at(at(root, "otherData"), "droppedEvents").asDouble(), 36.0);
    uint64_t xEvents = 0;
    uint64_t minArg = 1000;
    for (const Json& e : at(root, "traceEvents").items()) {
        if (at(e, "ph").asString() != "X")
            continue;
        ++xEvents;
        minArg = std::min<uint64_t>(
            minArg, uint64_t(at(at(e, "args"), "i").asDouble()));
    }
    EXPECT_EQ(xEvents, 64u);
    EXPECT_EQ(minArg, 36u); // oldest 36 were overwritten
    setRingCapacity(16384); // restore default for later tests
}

TEST(ObsTraceTest, ChromeTraceExportIsWellFormed)
{
    ScopedEnable on(true);
    resetTrace();

    {
        TraceSpan span("test", "outer");
        span.setArg(7);
        recordSpan("test", "manual", 10, 5, -1);
    }
    std::thread t([] {
        setThreadName("worker-test");
        TraceSpan span("test", "on-worker");
    });
    t.join();

    std::ostringstream os;
    writeChromeTrace(os);
    Json root = parseExport(os.str());

    EXPECT_EQ(at(root, "displayTimeUnit").asString(), "ms");
    ASSERT_TRUE(at(root, "traceEvents").isArray());

    std::set<std::string> threadNames;
    std::set<std::string> spanNames;
    for (const Json& e : at(root, "traceEvents").items()) {
        const std::string& ph = at(e, "ph").asString();
        ASSERT_TRUE(ph == "M" || ph == "X") << ph;
        if (ph == "M") {
            EXPECT_EQ(at(e, "name").asString(), "thread_name");
            threadNames.insert(at(at(e, "args"), "name").asString());
        } else {
            spanNames.insert(at(e, "name").asString());
            EXPECT_TRUE(at(e, "ts").isNumber());
            EXPECT_TRUE(at(e, "dur").isNumber());
            EXPECT_TRUE(at(e, "cat").isString());
        }
    }
    EXPECT_TRUE(threadNames.count("worker-test"));
    EXPECT_TRUE(spanNames.count("outer"));
    EXPECT_TRUE(spanNames.count("manual"));
    EXPECT_TRUE(spanNames.count("on-worker"));
}

TEST(ObsTraceTest, DisabledSpansRecordNothing)
{
    ScopedEnable off(false);
    resetTrace();
    {
        TraceSpan span("test", "ghost");
        DHDL_OBS_SPAN("test", "ghost-macro");
    }
    recordSpan("test", "ghost-manual", 0, 1, -1);
    EXPECT_EQ(traceStats().recorded, 0u);
}

TEST(ObsTraceTest, LongNamesAreTruncatedNotCorrupted)
{
    ScopedEnable on(true);
    resetTrace();
    std::string longName(200, 'n');
    recordSpan("test", longName.c_str(), 0, 1, -1);

    std::ostringstream os;
    writeChromeTrace(os);
    Json root = parseExport(os.str());
    bool found = false;
    for (const Json& e : at(root, "traceEvents").items()) {
        if (at(e, "ph").asString() != "X")
            continue;
        found = true;
        EXPECT_EQ(at(e, "name").asString(),
                  std::string(kTraceNameCap - 1, 'n'));
    }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace dhdl::obs
