/**
 * @file
 * End-to-end serving tests over real loopback sockets: streamed
 * results byte-identical to offline exploration, plan-cache reuse
 * visible in counters and traces, admission-control rejections,
 * cooperative cancel, protocol hardening (malformed requests,
 * version skew), the /metrics scrape, and graceful drain.
 */

#include "serve/server.hh"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <thread>

#include "apps/apps.hh"
#include "core/faultinject.hh"
#include "core/passes.hh"
#include "estimate/area_estimator.hh"
#include "serve/client.hh"

using namespace dhdl;
using namespace dhdl::serve;

namespace {

const est::RuntimeEstimator&
runtimeEst()
{
    static est::RuntimeEstimator rt;
    return rt;
}

/** The offline reference: what `dhdlc explore` computes and what a
 *  served job of the same design/config must reproduce exactly. */
std::string
offlineResultJson(const std::string& design, double scale,
                  int points, uint64_t seed)
{
    Graph g = apps::loadGraph(design, scale);
    DiagSink sink;
    PassContext ctx(sink);
    PassManager pm = standardPasses();
    EXPECT_TRUE(pm.run(g, ctx).ok());
    dse::ExploreConfig cfg;
    cfg.maxPoints = points;
    cfg.seed = seed;
    dse::Explorer ex(est::calibratedEstimator(), runtimeEst());
    return resultToJson(g, ex.explore(g, cfg)).render();
}

Json
submitRequest(const std::string& design, const std::string& tenant,
              double scale, int points, uint64_t seed)
{
    Json cfg = Json::object();
    cfg.set("points", points);
    cfg.set("seed", seed);
    Json req = Json::object();
    req.set("op", "submit");
    req.set("tenant", tenant);
    req.set("design", design);
    req.set("scale", scale);
    req.set("config", std::move(cfg));
    return req;
}

/** Submit `design` at `scale` and wait for it: the ack's `cached`
 *  flag and the rendered result. */
std::pair<bool, std::string>
submitAndWait(Client& c, const std::string& design, double scale)
{
    Json resp;
    EXPECT_TRUE(
        c.request(submitRequest(design, "t", scale, 60, 3), resp).ok());
    const Json* job = resp.find("job");
    EXPECT_NE(job, nullptr) << resp.render();
    const bool cached = resp.find("cached") && resp.find("cached")->asBool();
    Json wait = Json::object();
    wait.set("op", "result");
    wait.set("job", job ? job->asInt() : 0);
    wait.set("wait", true);
    EXPECT_TRUE(c.request(wait, resp).ok());
    const Json* result = resp.find("result");
    EXPECT_NE(result, nullptr) << resp.render();
    return {cached, result ? result->render() : std::string()};
}

struct ServerFixture : ::testing::Test {
    ServerConfig cfg;
    std::unique_ptr<Server> server;

    void
    startServer()
    {
        server = std::make_unique<Server>(est::calibratedEstimator(),
                                          runtimeEst(), cfg);
        ASSERT_TRUE(server->start().ok());
    }

    Client
    connect()
    {
        Client c;
        EXPECT_TRUE(
            c.connect("127.0.0.1:" + std::to_string(server->port()))
                .ok());
        return c;
    }

    void
    TearDown() override
    {
        if (server) {
            server->requestStop();
            server->wait();
        }
    }
};

TEST_F(ServerFixture, HelloHandshake)
{
    startServer();
    Client c = connect();
    std::string version;
    ASSERT_TRUE(c.hello(&version).ok());
    EXPECT_EQ(version, versionString());
}

TEST_F(ServerFixture, VersionSkewIsStructuredError)
{
    startServer();
    Client c = connect();
    Json req = Json::object();
    req.set("op", "hello");
    req.set("proto", kProtocolVersion + 1);
    ASSERT_TRUE(c.send(req).ok());
    Json resp;
    ASSERT_TRUE(c.recv(resp).ok());
    EXPECT_FALSE(resp.find("ok")->asBool());
    EXPECT_EQ(resp.find("error")->find("code")->asString(),
              "version-mismatch");
}

TEST_F(ServerFixture, MalformedRequestsRejectedNotDropped)
{
    startServer();
    Client c = connect();
    // Bad JSON, non-object, missing op, unknown op: each gets a
    // structured ParseError response on the same connection — the
    // session survives all four.
    for (const char* bad :
         {"this is not json", "[1,2,3]", "{\"x\":1}",
          "{\"op\":\"frobnicate\"}"}) {
        ASSERT_TRUE(c.sendLine(bad).ok());
        Json resp;
        ASSERT_TRUE(c.recv(resp).ok()) << bad;
        EXPECT_FALSE(resp.find("ok")->asBool()) << bad;
        EXPECT_EQ(resp.find("error")->find("code")->asString(),
                  "parse-error")
            << bad;
    }
    EXPECT_EQ(server->counters().malformed, 4u);
    // The connection still works.
    ASSERT_TRUE(c.hello().ok());
}

/**
 * The acceptance path: two tenants submit different designs
 * concurrently with streaming on; each streamed final result must be
 * byte-identical to the offline exploration of the same design, seed
 * and config, and the per-round events must be consistent.
 */
TEST_F(ServerFixture, ConcurrentTenantsStreamByteIdenticalResults)
{
    cfg.executors = 2;
    startServer();

    struct Outcome {
        std::string resultJson;
        int rounds = 0;
        std::string lastRoundFront;
        std::string finalFront;
    };
    auto run = [&](const std::string& design,
                   const std::string& tenant, Outcome& out) {
        Client c = connect();
        ASSERT_TRUE(c.hello().ok());
        Json req = submitRequest(design, tenant, 0.05, 150, 11);
        req.set("stream", true);
        Json resp;
        ASSERT_TRUE(c.request(req, resp).ok());
        ASSERT_TRUE(resp.find("ok")->asBool()) << resp.render();
        while (true) {
            Json ev;
            ASSERT_TRUE(c.recv(ev).ok());
            const Json* kind = ev.find("event");
            ASSERT_NE(kind, nullptr);
            if (kind->asString() == "round") {
                ++out.rounds;
                out.lastRoundFront = ev.find("front")->render();
                continue;
            }
            ASSERT_EQ(kind->asString(), "done");
            EXPECT_EQ(ev.find("state")->asString(), "done");
            const Json* result = ev.find("result");
            ASSERT_NE(result, nullptr);
            out.resultJson = result->render();
            out.finalFront = result->find("front")->render();
            return;
        }
    };

    Outcome gda, kmeans;
    std::thread t1([&] { run("gda", "tenant-a", gda); });
    std::thread t2([&] { run("kmeans", "tenant-b", kmeans); });
    t1.join();
    t2.join();

    // Byte-identical to the offline run of the same seed/config.
    EXPECT_EQ(gda.resultJson, offlineResultJson("gda", 0.05, 150, 11));
    EXPECT_EQ(kmeans.resultJson,
              offlineResultJson("kmeans", 0.05, 150, 11));
    // Random strategy = one round; its incremental front is final.
    EXPECT_EQ(gda.rounds, 1);
    EXPECT_EQ(gda.lastRoundFront, gda.finalFront);
    EXPECT_EQ(kmeans.lastRoundFront, kmeans.finalFront);
}

/**
 * Resubmitting the same design hits the plan cache: the hit counter
 * increments and the job's trace carries no plan-compile span.
 */
TEST_F(ServerFixture, RepeatSubmissionHitsPlanCache)
{
    startServer();
    Client c = connect();
    ASSERT_TRUE(c.hello().ok());

    auto submitAndWait = [&](uint64_t* jobId) {
        Json resp;
        ASSERT_TRUE(
            c.request(submitRequest("gda", "t", 0.05, 60, 3), resp)
                .ok());
        ASSERT_TRUE(resp.find("ok")->asBool()) << resp.render();
        *jobId = uint64_t(resp.find("job")->asInt());
        Json wait = Json::object();
        wait.set("op", "result");
        wait.set("job", *jobId);
        wait.set("wait", true);
        ASSERT_TRUE(c.request(wait, resp).ok());
        ASSERT_EQ(resp.find("state")->asString(), "done");
    };

    uint64_t first = 0, second = 0;
    submitAndWait(&first);
    auto s0 = server->cacheStats();
    EXPECT_EQ(s0.misses, 1u);
    EXPECT_EQ(s0.hits, 0u);
    submitAndWait(&second);
    auto s1 = server->cacheStats();
    EXPECT_EQ(s1.misses, 1u);
    EXPECT_EQ(s1.hits, 1u);

    auto traceOf = [&](uint64_t job) {
        Json req = Json::object();
        req.set("op", "trace");
        req.set("job", job);
        Json resp;
        EXPECT_TRUE(c.request(req, resp).ok());
        EXPECT_TRUE(resp.find("ok")->asBool()) << resp.render();
        return resp.find("trace")->render();
    };
    // Cold job compiled the plan; the cached job must not have.
    EXPECT_NE(traceOf(first).find("plan-compile"),
              std::string::npos);
    EXPECT_EQ(traceOf(second).find("plan-compile"),
              std::string::npos);

    // Identical results either way.
    auto resultOf = [&](uint64_t job) {
        Json req = Json::object();
        req.set("op", "result");
        req.set("job", job);
        Json resp;
        EXPECT_TRUE(c.request(req, resp).ok());
        return resp.find("result")->render();
    };
    EXPECT_EQ(resultOf(first), resultOf(second));
}

/**
 * A named resubmission resolves through the plan cache's alias
 * without a rebuild: a hit with the same bytes. The alias is keyed
 * by the exact bits of the scale, so the neighbouring double misses
 * the alias and still hits the cache by content, as before.
 */
TEST_F(ServerFixture, NamedResubmitHitsThroughAliasWithIdenticalBytes)
{
    startServer();
    Client c = connect();
    const auto first = submitAndWait(c, "gda", 0.05);
    const auto second = submitAndWait(c, "gda", 0.05);
    EXPECT_FALSE(first.first);
    EXPECT_TRUE(second.first);
    EXPECT_EQ(second.second, first.second);
    EXPECT_EQ(first.second, offlineResultJson("gda", 0.05, 60, 3));
    const double near = std::nextafter(0.05, 1.0);
    const auto nearby = submitAndWait(c, "gda", near);
    EXPECT_TRUE(nearby.first);
    EXPECT_EQ(nearby.second, offlineResultJson("gda", near, 60, 3));
    const auto s = server->cacheStats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 2u);
}

/**
 * Capacity 1, two designs: each submission evicts the other, so the
 * alias goes stale and the resubmission takes the build path. Its
 * result is byte-identical and the counters are what a cache without
 * aliases counts.
 */
TEST_F(ServerFixture, EvictedAliasRebuildsWithIdenticalBytes)
{
    cfg.cacheCapacity = 1;
    startServer();
    Client c = connect();
    const auto gda = submitAndWait(c, "gda", 0.05);
    const auto kmeans = submitAndWait(c, "kmeans", 0.05);
    const auto again = submitAndWait(c, "gda", 0.05);
    EXPECT_FALSE(gda.first);
    EXPECT_FALSE(kmeans.first);
    EXPECT_FALSE(again.first);
    EXPECT_EQ(again.second, gda.second);
    auto s = server->cacheStats();
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.evictions, 2u);
    EXPECT_EQ(s.size, 1u);
    // The rebuild recorded the alias again.
    const auto hit = submitAndWait(c, "gda", 0.05);
    EXPECT_TRUE(hit.first);
    EXPECT_EQ(hit.second, gda.second);
    s = server->cacheStats();
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.hits, 1u);
}

TEST_F(ServerFixture, TenantEvalBudgetEnforcedAndStructured)
{
    cfg.tenantEvalBudget = 100;
    startServer();
    Client c = connect();

    // First job fits the budget and completes.
    Json resp;
    ASSERT_TRUE(c.request(submitRequest("gda", "payer", 0.05, 80, 1),
                          resp)
                    .ok());
    ASSERT_TRUE(resp.find("ok")->asBool()) << resp.render();
    Json wait = Json::object();
    wait.set("op", "result");
    wait.set("job", resp.find("job")->asInt());
    wait.set("wait", true);
    ASSERT_TRUE(c.request(wait, resp).ok());
    ASSERT_EQ(resp.find("state")->asString(), "done");

    // The next one exceeds the remaining budget: a structured
    // admission-rejected Diag, not a dropped request.
    ASSERT_TRUE(c.request(submitRequest("gda", "payer", 0.05, 80, 1),
                          resp)
                    .ok());
    EXPECT_FALSE(resp.find("ok")->asBool());
    const Json* err = resp.find("error");
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->find("code")->asString(), "admission-rejected");
    EXPECT_NE(err->find("message")->asString().find("budget"),
              std::string::npos);

    // A different tenant is unaffected.
    ASSERT_TRUE(c.request(submitRequest("gda", "other", 0.05, 80, 1),
                          resp)
                    .ok());
    EXPECT_TRUE(resp.find("ok")->asBool()) << resp.render();
    EXPECT_EQ(server->counters().rejected, 1u);
}

TEST_F(ServerFixture, PerJobPointCapRejectsOversizedRequests)
{
    cfg.maxPointsPerJob = 500;
    startServer();
    Client c = connect();
    Json resp;
    ASSERT_TRUE(
        c.request(submitRequest("gda", "t", 0.05, 50000, 1), resp)
            .ok());
    EXPECT_FALSE(resp.find("ok")->asBool());
    EXPECT_EQ(resp.find("error")->find("code")->asString(),
              "admission-rejected");
}

/**
 * A misspelt or retired `config` field is a user error naming the
 * key, before anything is admitted or built; every field dhdlc and
 * the benchmarks send is still accepted.
 */
TEST_F(ServerFixture, UnknownConfigKeysAreUserErrors)
{
    startServer();
    Client c = connect();
    for (const char* key : {"pointz", "batch"}) {
        std::string quoted = "\"";
        quoted += key;
        quoted += '"';
        Json req = submitRequest("dotproduct", "t", 0.05, 20, 1);
        Json cfgJson = *req.find("config");
        cfgJson.set(key, 3);
        req.set("config", std::move(cfgJson));
        Json resp;
        ASSERT_TRUE(c.request(req, resp).ok());
        ASSERT_FALSE(resp.find("ok")->asBool()) << key;
        const Json* err = resp.find("error");
        EXPECT_EQ(err->find("code")->asString(), "user-error");
        EXPECT_NE(err->find("message")->asString().find(quoted),
                  std::string::npos)
            << err->find("message")->asString();
    }
    EXPECT_EQ(server->counters().submitted, 0u);
    EXPECT_EQ(server->cacheStats().misses, 0u);

    Json req = submitRequest("dotproduct", "t", 0.05, 20, 1);
    Json all = *req.find("config");
    all.set("threads", 1);
    all.set("eval_budget", 20);
    all.set("time_budget", 60.0);
    all.set("initial_points", 8);
    all.set("max_rounds", 2);
    all.set("strategy", "random");
    req.set("config", std::move(all));
    Json resp;
    ASSERT_TRUE(c.request(req, resp).ok());
    EXPECT_TRUE(resp.find("ok")->asBool()) << resp.render();
}

TEST_F(ServerFixture, CancelStopsARunningJob)
{
    cfg.executors = 1;
    cfg.tenantMaxJobs = 1;
    startServer();
    Client c = connect();

    // A big job (many points) that cancel will interrupt. The
    // injected hang holds it after its first evaluations, so the
    // cancel below lands mid-run however loaded the machine is.
    fault::configure("hang-after-evals=1,hang-seconds=1");
    struct Disarm {
        ~Disarm() { fault::reset(); }
    } disarm;
    Json resp;
    ASSERT_TRUE(
        c.request(submitRequest("gda", "t", 0.3, 30000, 1), resp)
            .ok());
    ASSERT_TRUE(resp.find("ok")->asBool()) << resp.render();
    const int64_t job = resp.find("job")->asInt();

    // While it occupies the tenant's single slot, a second submit
    // from the same tenant is refused.
    ASSERT_TRUE(
        c.request(submitRequest("gda", "t", 0.05, 50, 1), resp).ok());
    EXPECT_FALSE(resp.find("ok")->asBool());
    EXPECT_EQ(resp.find("error")->find("code")->asString(),
              "admission-rejected");

    // Cancel only once the job is provably running: a job cancelled
    // while still queued never starts, so it has no skipped points.
    Json status = Json::object();
    status.set("op", "status");
    status.set("job", job);
    for (;;) {
        ASSERT_TRUE(c.request(status, resp).ok());
        if (resp.find("state")->asString() != "queued")
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(resp.find("state")->asString(), "running");

    Json cancel = Json::object();
    cancel.set("op", "cancel");
    cancel.set("job", job);
    ASSERT_TRUE(c.request(cancel, resp).ok());
    EXPECT_TRUE(resp.find("ok")->asBool());

    Json wait = Json::object();
    wait.set("op", "result");
    wait.set("job", job);
    wait.set("wait", true);
    ASSERT_TRUE(c.request(wait, resp).ok());
    EXPECT_EQ(resp.find("state")->asString(), "cancelled");
    const Json* stats = resp.find("result")->find("stats");
    EXPECT_TRUE(stats->find("cancelled")->asBool());
    // Cancellation is graceful: un-evaluated points are reported as
    // skipped, evaluated ones kept.
    EXPECT_GT(stats->find("skipped")->asInt(), 0);

    // The cancelled job refunded its unevaluated charge, so the
    // tenant can submit again.
    ASSERT_TRUE(
        c.request(submitRequest("gda", "t", 0.05, 50, 1), resp).ok());
    EXPECT_TRUE(resp.find("ok")->asBool()) << resp.render();
}

TEST_F(ServerFixture, SamplingShortfallSurfacesInResult)
{
    startServer();
    Client c = connect();
    // Tiny design, huge request: the legal space is smaller than the
    // asked-for sample count, and the result must say so.
    Json resp;
    ASSERT_TRUE(
        c.request(submitRequest("dotproduct", "t", 0.005, 5000, 1),
                  resp)
            .ok());
    ASSERT_TRUE(resp.find("ok")->asBool()) << resp.render();
    Json wait = Json::object();
    wait.set("op", "result");
    wait.set("job", resp.find("job")->asInt());
    wait.set("wait", true);
    ASSERT_TRUE(c.request(wait, resp).ok());
    const Json* stats = resp.find("result")->find("stats");
    ASSERT_NE(stats, nullptr);
    ASSERT_LT(stats->find("sampled")->asInt(), 5000);
    EXPECT_TRUE(stats->find("shortfall")->asBool());
    EXPECT_EQ(stats->find("requested")->asInt(), 5000);
    // And as a warning diag in the result's warning stream.
    bool warned = false;
    for (const Json& w : resp.find("result")->find("warnings")->items())
        if (w.find("code")->asString() == "sampling-shortfall")
            warned = true;
    EXPECT_TRUE(warned);
}

/** /metrics must be parseable Prometheus exposition text carrying
 *  the serving series. */
TEST_F(ServerFixture, MetricsEndpointParsesBack)
{
    startServer();
    Client c = connect();
    Json resp;
    ASSERT_TRUE(
        c.request(submitRequest("gda", "t", 0.05, 40, 1), resp).ok());
    Json wait = Json::object();
    wait.set("op", "result");
    wait.set("job", resp.find("job")->asInt());
    wait.set("wait", true);
    ASSERT_TRUE(c.request(wait, resp).ok());

    // Scrape over HTTP exactly like Prometheus would.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(uint16_t(server->port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof addr),
              0);
    const char* get = "GET /metrics HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(fd, get, strlen(get), 0), ssize_t(strlen(get)));
    std::string http;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
        http.append(buf, size_t(n));
    ::close(fd);

    ASSERT_NE(http.find("HTTP/1.0 200"), std::string::npos);
    const size_t bodyAt = http.find("\r\n\r\n");
    ASSERT_NE(bodyAt, std::string::npos);
    const std::string body = http.substr(bodyAt + 4);

    // Parse the exposition format back: every non-comment line is
    // "name value" with a numeric value.
    std::map<std::string, double> series;
    size_t pos = 0;
    while (pos < body.size()) {
        size_t eol = body.find('\n', pos);
        if (eol == std::string::npos)
            eol = body.size();
        const std::string line = body.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#')
            continue;
        const size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        char* end = nullptr;
        const double value =
            std::strtod(line.c_str() + sp + 1, &end);
        ASSERT_EQ(*end, '\0') << line;
        series[line.substr(0, sp)] = value;
    }
    EXPECT_EQ(series.at("dhdl_serve_jobs_done_total"), 1.0);
    EXPECT_EQ(series.at("dhdl_serve_plan_cache_misses_total"), 1.0);
    EXPECT_GE(series.at("dhdl_serve_requests_total"), 2.0);
    EXPECT_EQ(series.at("dhdl_serve_jobs_active"), 0.0);
    // One info series names where the server's estimator calibration
    // came from and its cache key, whether or not obs records.
    const est::CalibrationInfo& calib =
        est::calibratedEstimator().calibration();
    const std::string info =
        std::string("dhdl_estimate_calibration_info{source=\"") +
        est::calibrationSourceName(calib.source) + "\",key=\"" +
        calib.key + "\"}";
    EXPECT_EQ(series.at(info), 1.0);
    size_t infoSeries = 0;
    for (const auto& [name, value] : series)
        infoSeries +=
            name.rfind("dhdl_estimate_calibration_info", 0) == 0;
    EXPECT_EQ(infoSeries, 1u);
}

TEST_F(ServerFixture, GracefulDrainRejectsNewWorkFinishesOld)
{
    startServer();
    Client c = connect();
    Json resp;
    ASSERT_TRUE(
        c.request(submitRequest("gda", "t", 0.1, 4000, 1), resp)
            .ok());
    ASSERT_TRUE(resp.find("ok")->asBool()) << resp.render();
    const int64_t job = resp.find("job")->asInt();

    server->requestStop();
    EXPECT_TRUE(server->draining());

    // Submissions on the existing session are refused with a
    // structured diagnostic...
    ASSERT_TRUE(
        c.request(submitRequest("gda", "t", 0.05, 50, 1), resp).ok());
    EXPECT_FALSE(resp.find("ok")->asBool());
    EXPECT_EQ(resp.find("error")->find("code")->asString(),
              "admission-rejected");

    // ...while the running job completes and its result remains
    // fetchable on the open session.
    Json wait = Json::object();
    wait.set("op", "result");
    wait.set("job", job);
    wait.set("wait", true);
    ASSERT_TRUE(c.request(wait, resp).ok());
    EXPECT_EQ(resp.find("state")->asString(), "done");

    server->wait();
    EXPECT_EQ(server->counters().done, 1u);
}

} // namespace
