#include "serve/server.hh"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include "apps/apps.hh"
#include "core/parser.hh"
#include "core/passes.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"

namespace dhdl::serve {

const char*
jobStateName(JobState s)
{
    switch (s) {
    case JobState::Queued:
        return "queued";
    case JobState::Running:
        return "running";
    case JobState::Done:
        return "done";
    case JobState::Failed:
        return "failed";
    case JobState::Cancelled:
        return "cancelled";
    }
    return "unknown";
}

/** One admitted exploration job and its streaming event log. */
struct Server::Job {
    uint64_t id = 0;
    std::string tenant;
    std::shared_ptr<const CachedPlan> design;
    dse::ExploreConfig cfg;
    bool cacheHit = false;
    int64_t charged = 0; //!< Points charged to the tenant budget.

    JobState state = JobState::Queued;
    std::shared_ptr<std::atomic<bool>> cancel =
        std::make_shared<std::atomic<bool>>(false);
    dse::ExploreResult result; //!< Valid when Done/Cancelled.
    Diag error;                //!< Valid when Failed.
    bool finished = false;

    // Progress (guarded by Server::jobsMu_).
    size_t rounds = 0;
    size_t evaluated = 0;
    size_t frontSize = 0;

    /** Rendered event lines, appended as rounds complete; streaming
     *  sessions replay this log so no event is ever missed. */
    std::vector<std::string> events;
};

namespace {

/** Write all bytes + newline; MSG_NOSIGNAL so a gone client is an
 *  error return, not a SIGPIPE. */
bool
writeLine(int fd, const std::string& line)
{
    std::string out = line;
    out += '\n';
    size_t off = 0;
    while (off < out.size()) {
        ssize_t n = ::send(fd, out.data() + off, out.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += size_t(n);
    }
    return true;
}

bool
writeAll(int fd, const std::string& bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += size_t(n);
    }
    return true;
}

/** Pull one '\n'-terminated line out of buf/fd; false on EOF. A
 *  hostile peer can't balloon the buffer: lines are capped. */
bool
readLine(int fd, std::string& buf, std::string& line)
{
    constexpr size_t kMaxLine = 64u << 20;
    while (true) {
        size_t nl = buf.find('\n');
        if (nl != std::string::npos) {
            line = buf.substr(0, nl);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            buf.erase(0, nl + 1);
            return true;
        }
        if (buf.size() > kMaxLine)
            return false;
        char chunk[16384];
        ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0)
            return false;
        buf.append(chunk, size_t(n));
    }
}

Diag
makeDiag(DiagCode code, DiagSeverity sev, const std::string& stage,
         std::string message)
{
    Diag d;
    d.code = code;
    d.severity = sev;
    d.stage = stage;
    d.message = std::move(message);
    return d;
}

} // namespace

Server::Server(const est::AreaEstimator& area,
               const est::RuntimeEstimator& runtime, ServerConfig cfg)
    : area_(area), runtime_(runtime), cfg_(std::move(cfg)),
      cache_(cfg_.cacheCapacity)
{
    cfg_.executors = std::max(1, cfg_.executors);
    cfg_.jobThreads = std::max(1, cfg_.jobThreads);
}

Server::~Server()
{
    requestStop();
    wait();
}

Status
Server::start()
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return Status::error(makeDiag(
            DiagCode::InternalError, DiagSeverity::Error, "serve",
            std::string("socket: ") + std::strerror(errno)));
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(uint16_t(cfg_.port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
            0 ||
        ::listen(fd, 64) < 0) {
        Status st = Status::error(makeDiag(
            DiagCode::UserError, DiagSeverity::Error, "serve",
            std::string("bind/listen on port ") +
                std::to_string(cfg_.port) + ": " +
                std::strerror(errno)));
        ::close(fd);
        return st;
    }
    socklen_t len = sizeof addr;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = int(ntohs(addr.sin_port));

    listenFd_.store(fd);
    pool_ = std::make_unique<cpu::ThreadPool>(cfg_.executors);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return Status();
}

void
Server::requestStop()
{
    draining_.store(true);
    const int fd = listenFd_.exchange(-1);
    if (fd >= 0)
        ::shutdown(fd, SHUT_RDWR);
    jobsCv_.notify_all();
}

void
Server::wait()
{
    if (acceptThread_.joinable())
        acceptThread_.join();
    {
        std::unique_lock<std::mutex> lk(jobsMu_);
        jobsCv_.wait(lk, [&] { return activeJobs_ == 0; });
    }
    // Jobs are drained and their final events appended; unblock any
    // idle sessions still waiting for a next request.
    {
        std::lock_guard<std::mutex> lk(sessionsMu_);
        for (int fd : sessionFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    std::vector<std::thread> sessions;
    {
        std::lock_guard<std::mutex> lk(sessionsMu_);
        sessions.swap(sessions_);
    }
    for (auto& t : sessions)
        if (t.joinable())
            t.join();
    pool_.reset();
}

void
Server::acceptLoop()
{
    obs::setThreadName("serve-accept");
    while (true) {
        const int lfd = listenFd_.load();
        if (lfd < 0)
            break;
        int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
            if (draining_.load())
                break;
            continue;
        }
        if (draining_.load()) {
            ::close(fd);
            break;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        std::lock_guard<std::mutex> lk(sessionsMu_);
        sessionFds_.insert(fd);
        sessions_.emplace_back([this, fd] { session(fd); });
    }
    const int lfd = listenFd_.exchange(-1);
    if (lfd >= 0)
        ::close(lfd);
}

void
Server::session(int fd)
{
    obs::setThreadName("serve-session");
    std::string buf;
    while (true) {
        std::string line;
        if (!readLine(fd, buf, line))
            break;
        if (line.rfind("GET ", 0) == 0) {
            serveHttp(fd, line);
            break;
        }
        if (line.empty())
            continue;

        Json req;
        Json resp;
        bool closeAfter = false;
        Status st = parseJson(line, req);
        if (!st.ok() || !req.isObject()) {
            std::lock_guard<std::mutex> lk(jobsMu_);
            ++counters_.requests;
            ++counters_.malformed;
            resp = st.ok() ? errorResponse(
                                 DiagCode::ParseError,
                                 "request must be a JSON object")
                           : errorResponse(st.diag());
        } else {
            resp = dispatch(fd, req, closeAfter);
        }
        if (!resp.isNull() && !writeLine(fd, resp.render()))
            break;
        if (closeAfter)
            break;
    }
    ::close(fd);
    std::lock_guard<std::mutex> lk(sessionsMu_);
    sessionFds_.erase(fd);
}

void
Server::serveHttp(int fd, const std::string& requestLine)
{
    const bool metrics =
        requestLine.rfind("GET /metrics", 0) == 0;
    std::string body = metrics ? metricsText() : "not found\n";
    std::ostringstream os;
    os << "HTTP/1.0 " << (metrics ? "200 OK" : "404 Not Found")
       << "\r\nContent-Type: text/plain; version=0.0.4; "
          "charset=utf-8\r\nContent-Length: "
       << body.size() << "\r\nConnection: close\r\n\r\n"
       << body;
    writeAll(fd, os.str());
}

Json
Server::dispatch(int fd, const Json& req, bool& closeAfter)
{
    {
        std::lock_guard<std::mutex> lk(jobsMu_);
        ++counters_.requests;
    }
    // Any request may carry the handshake field; skew is an explicit
    // structured error, never a silent misparse.
    if (const Json* proto = req.find("proto");
        proto && proto->asInt() != kProtocolVersion) {
        return errorResponse(
            DiagCode::VersionMismatch,
            "client speaks protocol " +
                std::to_string(proto->asInt()) +
                ", server speaks " +
                std::to_string(kProtocolVersion) + " (dhdld " +
                versionString() + ")");
    }
    const Json* op = req.find("op");
    if (!op || !op->isString()) {
        std::lock_guard<std::mutex> lk(jobsMu_);
        ++counters_.malformed;
        return errorResponse(DiagCode::ParseError,
                             "request has no \"op\"");
    }
    const std::string& name = op->asString();
    if (name == "hello")
        return handleHello(req);
    if (name == "submit")
        return handleSubmit(fd, req);
    if (name == "status")
        return handleStatus(req);
    if (name == "result")
        return handleResult(req);
    if (name == "cancel")
        return handleCancel(req);
    if (name == "trace")
        return handleTrace(req);
    if (name == "metrics")
        return handleMetrics();
    if (name == "shutdown") {
        requestStop();
        closeAfter = true;
        Json j = Json::object();
        j.set("ok", true);
        j.set("draining", true);
        return j;
    }
    {
        std::lock_guard<std::mutex> lk(jobsMu_);
        ++counters_.malformed;
    }
    return errorResponse(DiagCode::ParseError,
                         "unknown op \"" + name + "\"");
}

Json
Server::handleHello(const Json& req)
{
    (void)req; // proto skew already rejected in dispatch().
    Json j = Json::object();
    j.set("ok", true);
    j.set("proto", kProtocolVersion);
    j.set("version", versionString());
    return j;
}

std::shared_ptr<Server::Job>
Server::findJob(const Json& req, Json* err)
{
    const Json* id = req.find("job");
    if (!id || !id->isNumber()) {
        *err = errorResponse(DiagCode::ParseError,
                             "request has no \"job\" id");
        return nullptr;
    }
    std::lock_guard<std::mutex> lk(jobsMu_);
    auto it = jobs_.find(uint64_t(id->asInt()));
    if (it == jobs_.end()) {
        *err = errorResponse(DiagCode::UserError,
                             "unknown job " +
                                 std::to_string(id->asInt()));
        return nullptr;
    }
    return it->second;
}

Json
Server::handleSubmit(int fd, const Json& req)
{
    static const obs::Counter cAdmit("serve.jobs.admitted");
    static const obs::Counter cReject("serve.jobs.rejected");

    std::string tenant = "anonymous";
    if (const Json* t = req.find("tenant");
        t && t->isString() && !t->asString().empty())
        tenant = t->asString();

    // Explore configuration from the request, server-side caps
    // applied. Unknown strategy names and out-of-range sizes are
    // user errors, not crashes.
    dse::ExploreConfig ecfg;
    ecfg.maxPoints = 2000;
    ecfg.threads = cfg_.jobThreads;
    if (const Json* c = req.find("config"); c && c->isObject()) {
        // A misspelt or retired field would otherwise change nothing
        // and say nothing.
        static const char* const kConfigKeys[] = {
            "points",      "seed",           "threads",
            "eval_budget", "time_budget",    "initial_points",
            "max_rounds",  "strategy"};
        for (const auto& [key, value] : c->members()) {
            if (std::find(std::begin(kConfigKeys), std::end(kConfigKeys),
                          key) == std::end(kConfigKeys))
                return errorResponse(
                    DiagCode::UserError,
                    "unknown config key \"" + key +
                        "\" (points|seed|threads|eval_budget|"
                        "time_budget|initial_points|max_rounds|"
                        "strategy)");
        }
        if (const Json* v = c->find("points"))
            ecfg.maxPoints = int(v->asInt(ecfg.maxPoints));
        if (const Json* v = c->find("seed"))
            ecfg.seed = uint64_t(v->asInt(int64_t(ecfg.seed)));
        if (const Json* v = c->find("threads"))
            ecfg.threads =
                std::clamp(int(v->asInt(ecfg.threads)), 1, 16);
        if (const Json* v = c->find("eval_budget"))
            ecfg.evalBudget = v->asInt();
        if (const Json* v = c->find("time_budget"))
            ecfg.timeBudgetSeconds = v->asDouble();
        if (const Json* v = c->find("initial_points"))
            ecfg.surrogate.initialPoints = int(v->asInt());
        if (const Json* v = c->find("max_rounds"))
            ecfg.surrogate.maxRounds = int(v->asInt());
        if (const Json* v = c->find("strategy")) {
            const std::string& s = v->asString();
            if (s == "random")
                ecfg.strategy = dse::StrategyKind::Random;
            else if (s == "surrogate")
                ecfg.strategy = dse::StrategyKind::Surrogate;
            else
                return errorResponse(DiagCode::UserError,
                                     "unknown strategy \"" + s +
                                         "\" (random|surrogate)");
        }
    }
    if (ecfg.maxPoints <= 0 || ecfg.maxPoints > cfg_.maxPointsPerJob)
        return errorResponse(
            DiagCode::AdmissionRejected,
            "points must be in [1, " +
                std::to_string(cfg_.maxPointsPerJob) + "], got " +
                std::to_string(ecfg.maxPoints),
            "admission");

    // Reserve capacity under the lock; roll back if the design turns
    // out to be unloadable. All three refusals are structured
    // backpressure: the client is told exactly which limit it hit.
    const int64_t charge = ecfg.maxPoints;
    {
        std::lock_guard<std::mutex> lk(jobsMu_);
        auto reject = [&](std::string why) {
            ++counters_.rejected;
            cReject.add(1);
            return errorResponse(DiagCode::AdmissionRejected,
                                 std::move(why), "admission");
        };
        if (draining_.load())
            return reject("server is draining; not accepting jobs");
        if (queued_ >= cfg_.maxQueue)
            return reject("job queue full (" +
                          std::to_string(queued_) +
                          " queued); retry later");
        Tenant& t = tenants_[tenant];
        if (t.active >= cfg_.tenantMaxJobs)
            return reject("tenant \"" + tenant + "\" already has " +
                          std::to_string(t.active) +
                          " active job(s) (limit " +
                          std::to_string(cfg_.tenantMaxJobs) + ")");
        if (cfg_.tenantEvalBudget > 0 &&
            t.spent + charge > cfg_.tenantEvalBudget)
            return reject(
                "tenant \"" + tenant + "\" evaluation budget " +
                "exhausted: " + std::to_string(t.spent) + " spent + " +
                std::to_string(charge) + " requested > " +
                std::to_string(cfg_.tenantEvalBudget));
        t.active += 1;
        t.spent += charge;
        queued_ += 1;
        activeJobs_ += 1;
    }
    auto rollback = [&] {
        std::lock_guard<std::mutex> lk(jobsMu_);
        Tenant& t = tenants_[tenant];
        t.active -= 1;
        t.spent -= charge;
        queued_ -= 1;
        activeJobs_ -= 1;
        jobsCv_.notify_all();
    };

    // Load the design: inline `.dhdl` text or a registry name. The
    // standard pass pipeline runs on every load (exactly like dhdlc),
    // so the cache keys canonical post-pass IR. A registry name the
    // cache has resolved before skips the load altogether.
    const double scale =
        req.find("scale") ? req.find("scale")->asDouble(1.0) : 1.0;
    const Json* ir = req.find("ir");
    const Json* named = req.find("design");
    if (ir && !ir->isString())
        ir = nullptr;
    if (ir || (named && !named->isString()))
        named = nullptr;
    bool hit = false;
    std::shared_ptr<const CachedPlan> design =
        named ? cache_.lookupAlias(named->asString(), scale) : nullptr;
    if (design) {
        hit = true;
    } else {
        std::optional<Graph> g;
        if (ir) {
            ParseResult pr = parseIR(ir->asString());
            if (!pr.ok()) {
                rollback();
                return errorResponse(pr.status.diag());
            }
            g = std::move(*pr.graph);
        } else if (named) {
            try {
                Design built = apps::buildApp(named->asString(), scale);
                g = std::move(built.graph());
            } catch (const std::exception& e) {
                rollback();
                return errorResponse(DiagCode::UserError, e.what(),
                                     "load");
            }
        } else {
            rollback();
            return errorResponse(DiagCode::ParseError,
                                 "submit needs \"design\" or \"ir\"");
        }
        DiagSink psink;
        PassContext ctx(psink);
        PassManager pm = standardPasses();
        if (Status st = pm.run(*g, ctx); !st.ok()) {
            rollback();
            return errorResponse(st.diag());
        }
        design = cache_.acquire(std::move(*g), &hit);
        if (named)
            cache_.addAlias(named->asString(), scale, design);
    }

    auto job = std::make_shared<Job>();
    job->tenant = tenant;
    job->design = design;
    job->cfg = ecfg;
    job->cacheHit = hit;
    job->charged = charge;
    {
        std::lock_guard<std::mutex> lk(jobsMu_);
        job->id = nextJobId_++;
        jobs_[job->id] = job;
        ++counters_.submitted;
    }
    cAdmit.add(1);
    pool_->submit([this, job] { runJob(job); });

    Json resp = Json::object();
    resp.set("ok", true);
    resp.set("job", job->id);
    resp.set("cached", hit);
    resp.set("version", versionString());
    resp.set("proto", kProtocolVersion);

    const Json* stream = req.find("stream");
    if (stream && stream->asBool()) {
        if (!writeLine(fd, resp.render()))
            return Json();
        streamEvents(fd, job);
        return Json(); // Everything already written.
    }
    return resp;
}

void
Server::runJob(std::shared_ptr<Job> j)
{
    static const obs::Counter cDone("serve.jobs.done");
    static const obs::Counter cFailed("serve.jobs.failed");
    static const obs::Counter cCancelled("serve.jobs.cancelled");
    static const obs::Histogram hJobUs(
        "serve.job.us",
        {1000, 10000, 100000, 1000000, 10000000, 100000000});

    {
        std::lock_guard<std::mutex> lk(jobsMu_);
        queued_ -= 1;
        if (j->cancel->load()) {
            j->state = JobState::Cancelled;
        } else {
            j->state = JobState::Running;
        }
    }
    if (j->state == JobState::Running) {
        const auto t0 = std::chrono::steady_clock::now();
        dse::ExploreConfig cfg = j->cfg;
        cfg.plan = j->design->plan;
        cfg.cancel = j->cancel;
        cfg.onRound = [this, j](const dse::RoundStats& rs,
                                const dse::ParetoFront& front,
                                const std::vector<dse::DesignPoint>&
                                    pts) {
            Json ev = Json::object();
            ev.set("event", "round");
            ev.set("job", j->id);
            ev.set("round", rs.round);
            ev.set("evaluated", rs.evaluated);
            ev.set("front_size", front.size());
            ev.set("front",
                   frontToJson(j->design->graph, pts, front.indices()));
            std::string line = ev.render();
            std::lock_guard<std::mutex> lk(jobsMu_);
            j->rounds = size_t(rs.round) + 1;
            j->evaluated += rs.evaluated;
            j->frontSize = front.size();
            j->events.push_back(std::move(line));
            jobsCv_.notify_all();
        };
        dse::Explorer ex(area_, runtime_);
        try {
            dse::ExploreResult res =
                ex.explore(j->design->graph, cfg);
            // The plan was compiled inside the cache, not the driver;
            // attribute its wall-clock to the first (miss) job so a
            // cold trace shows the plan-compile span and a cache hit's
            // doesn't.
            if (!j->cacheHit)
                res.stats.planSeconds = j->design->planSeconds;
            std::lock_guard<std::mutex> lk(jobsMu_);
            j->result = std::move(res);
            j->state = j->result.stats.cancelled
                           ? JobState::Cancelled
                           : JobState::Done;
        } catch (...) {
            Diag d = diagFromCurrentException("serve");
            std::lock_guard<std::mutex> lk(jobsMu_);
            j->error = std::move(d);
            j->state = JobState::Failed;
        }
        hJobUs.observe(uint64_t(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
    }

    // Render the final event before taking the lock: this thread is
    // the only writer of the job's state, result and error, so it
    // reads them safely without it.
    Json ev = Json::object();
    ev.set("event", "done");
    ev.set("job", j->id);
    ev.set("state", jobStateName(j->state));
    ev.set("cached", j->cacheHit);
    if (j->state == JobState::Done || j->state == JobState::Cancelled)
        ev.set("result", resultToJson(j->design->graph, j->result));
    else
        ev.set("error", diagToJson(j->error));
    std::string line = ev.render();

    std::lock_guard<std::mutex> lk(jobsMu_);
    switch (j->state) {
    case JobState::Done:
        ++counters_.done;
        cDone.add(1);
        break;
    case JobState::Cancelled:
        ++counters_.cancelled;
        cCancelled.add(1);
        break;
    default:
        ++counters_.failed;
        cFailed.add(1);
        break;
    }
    j->events.push_back(std::move(line));
    j->finished = true;

    // Refund the unevaluated remainder of the admission charge so a
    // cancelled or budget-cut job doesn't burn its tenant's budget.
    Tenant& t = tenants_[j->tenant];
    t.active -= 1;
    const int64_t used = int64_t(j->result.stats.evaluated);
    t.spent -= std::max<int64_t>(0, j->charged - used);
    activeJobs_ -= 1;
    jobsCv_.notify_all();
}

bool
Server::streamEvents(int fd, const std::shared_ptr<Job>& j)
{
    size_t sent = 0;
    std::unique_lock<std::mutex> lk(jobsMu_);
    while (true) {
        jobsCv_.wait(lk, [&] {
            return j->events.size() > sent || j->finished;
        });
        while (sent < j->events.size()) {
            std::string line = j->events[sent++];
            lk.unlock();
            if (!writeLine(fd, line))
                return false; // Client gone; the job runs on.
            lk.lock();
        }
        if (j->finished && sent >= j->events.size())
            return true;
    }
}

Json
Server::handleStatus(const Json& req)
{
    Json err;
    auto j = findJob(req, &err);
    if (!j)
        return err;
    std::lock_guard<std::mutex> lk(jobsMu_);
    Json resp = Json::object();
    resp.set("ok", true);
    resp.set("job", j->id);
    resp.set("state", jobStateName(j->state));
    resp.set("cached", j->cacheHit);
    resp.set("rounds", j->rounds);
    resp.set("evaluated", j->evaluated);
    resp.set("front_size", j->frontSize);
    return resp;
}

Json
Server::handleResult(const Json& req)
{
    Json err;
    auto j = findJob(req, &err);
    if (!j)
        return err;
    const Json* wait = req.find("wait");
    std::unique_lock<std::mutex> lk(jobsMu_);
    if (wait && wait->asBool())
        jobsCv_.wait(lk, [&] { return j->finished; });
    Json resp = Json::object();
    if (j->state == JobState::Failed) {
        resp.set("ok", false);
        resp.set("job", j->id);
        resp.set("state", jobStateName(j->state));
        resp.set("error", diagToJson(j->error));
        return resp;
    }
    resp.set("ok", true);
    resp.set("job", j->id);
    resp.set("state", jobStateName(j->state));
    resp.set("cached", j->cacheHit);
    if (j->finished)
        resp.set("result", resultToJson(j->design->graph, j->result));
    return resp;
}

Json
Server::handleCancel(const Json& req)
{
    Json err;
    auto j = findJob(req, &err);
    if (!j)
        return err;
    j->cancel->store(true);
    std::lock_guard<std::mutex> lk(jobsMu_);
    Json resp = Json::object();
    resp.set("ok", true);
    resp.set("job", j->id);
    resp.set("state", jobStateName(j->state));
    resp.set("cancelling", !j->finished);
    return resp;
}

Json
Server::handleTrace(const Json& req)
{
    Json err;
    auto j = findJob(req, &err);
    if (!j)
        return err;
    std::lock_guard<std::mutex> lk(jobsMu_);
    if (!j->finished || j->state == JobState::Failed)
        return errorResponse(DiagCode::UserError,
                             "job " + std::to_string(j->id) +
                                 " has no trace (state " +
                                 jobStateName(j->state) + ")");
    Json resp = Json::object();
    resp.set("ok", true);
    resp.set("job", j->id);
    resp.set("cached", j->cacheHit);
    resp.set("trace", jobTraceToJson(j->result));
    return resp;
}

Json
Server::handleMetrics()
{
    Json resp = Json::object();
    resp.set("ok", true);
    resp.set("text", metricsText());
    return resp;
}

ServerCounters
Server::counters() const
{
    std::lock_guard<std::mutex> lk(jobsMu_);
    return counters_;
}

std::string
Server::metricsText() const
{
    std::ostringstream os;
    obs::snapshotMetrics().renderProm(os);
    // The server's own series render unconditionally: the scrape
    // endpoint is useful even when obs recording is off.
    const PlanCache::Stats cs = cache_.stats();
    ServerCounters c;
    int queued = 0;
    int active = 0;
    {
        std::lock_guard<std::mutex> lk(jobsMu_);
        c = counters_;
        queued = queued_;
        active = activeJobs_;
    }
    auto counter = [&](const char* name, uint64_t v) {
        os << "# TYPE " << name << " counter\n"
           << name << " " << v << "\n";
    };
    auto gauge = [&](const char* name, int64_t v) {
        os << "# TYPE " << name << " gauge\n"
           << name << " " << v << "\n";
    };
    counter("dhdl_serve_requests_total", c.requests);
    counter("dhdl_serve_requests_malformed_total", c.malformed);
    counter("dhdl_serve_jobs_submitted_total", c.submitted);
    counter("dhdl_serve_jobs_rejected_total", c.rejected);
    counter("dhdl_serve_jobs_done_total", c.done);
    counter("dhdl_serve_jobs_failed_total", c.failed);
    counter("dhdl_serve_jobs_cancelled_total", c.cancelled);
    counter("dhdl_serve_plan_cache_hits_total", cs.hits);
    counter("dhdl_serve_plan_cache_misses_total", cs.misses);
    counter("dhdl_serve_plan_cache_evictions_total", cs.evictions);
    gauge("dhdl_serve_plan_cache_entries", int64_t(cs.size));
    gauge("dhdl_serve_jobs_queued", queued);
    gauge("dhdl_serve_jobs_active", active);
    // Where this estimator's calibration came from (cache hit, miss
    // or recompute) and its cache key, as one info series.
    const est::CalibrationInfo& calib = area_.calibration();
    os << "# TYPE dhdl_estimate_calibration_info gauge\n"
       << "dhdl_estimate_calibration_info{source=\""
       << est::calibrationSourceName(calib.source) << "\",key=\""
       << calib.key << "\"} 1\n";
    return os.str();
}

} // namespace dhdl::serve
