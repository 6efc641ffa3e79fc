/**
 * dhdld — the persistent DSE-as-a-service daemon (src/serve).
 *
 * Usage:
 *   dhdld [--port N] [--port-file FILE] [--executors N]
 *         [--threads T] [--cache-size N] [--max-queue N]
 *         [--tenant-jobs N] [--tenant-eval-budget N]
 *         [--max-points N] [--version]
 *
 * Binds a loopback TCP listener (an ephemeral port by default;
 * --port-file publishes the bound port for scripts and CI), prints
 * "dhdld listening on 127.0.0.1:PORT", and serves the line-delimited
 * JSON protocol until SIGTERM/SIGINT, which begin a graceful drain:
 * running jobs finish, streaming clients receive their final events,
 * new submissions are rejected with a structured admission
 * diagnostic. `GET /metrics` on the same port returns the metrics
 * registry in Prometheus exposition format, including where the
 * estimator calibration came from (cache hit, miss or recompute).
 * DHDL_OBS=ON additionally enables span/metric recording inside jobs.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "estimate/area_estimator.hh"
#include "serve/server.hh"

using namespace dhdl;

namespace {

serve::Server* gServer = nullptr;

/** SIGTERM/SIGINT: requestStop() is async-signal-safe by contract. */
void
onSignal(int)
{
    if (gServer)
        gServer->requestStop();
}

int
usage()
{
    std::cerr << "usage: dhdld [--port N] [--port-file FILE]"
                 " [--executors N] [--threads T] [--cache-size N]"
                 " [--max-queue N] [--tenant-jobs N]"
                 " [--tenant-eval-budget N] [--max-points N]"
                 " [--version]"
              << std::endl;
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    serve::ServerConfig cfg;
    std::string portFile;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--version") {
            std::cout << "dhdld " << serve::versionString()
                      << " (protocol " << serve::kProtocolVersion
                      << ")\n";
            return 0;
        }
        if (i + 1 >= argc)
            return usage();
        const char* v = argv[++i];
        if (flag == "--port")
            cfg.port = std::atoi(v);
        else if (flag == "--port-file")
            portFile = v;
        else if (flag == "--executors")
            cfg.executors = std::atoi(v);
        else if (flag == "--threads")
            cfg.jobThreads = std::atoi(v);
        else if (flag == "--cache-size")
            cfg.cacheCapacity = size_t(std::atoll(v));
        else if (flag == "--max-queue")
            cfg.maxQueue = std::atoi(v);
        else if (flag == "--tenant-jobs")
            cfg.tenantMaxJobs = std::atoi(v);
        else if (flag == "--tenant-eval-budget")
            cfg.tenantEvalBudget = std::atoll(v);
        else if (flag == "--max-points")
            cfg.maxPointsPerJob = std::atoi(v);
        else
            return usage();
    }

    static est::RuntimeEstimator runtime;
    const est::AreaEstimator& area = est::calibratedEstimator();
    if (const auto& w = area.calibration().warning)
        std::cerr << "dhdld: " << w->str() << "\n";
    serve::Server server(area, runtime, cfg);
    if (Status st = server.start(); !st.ok()) {
        std::cerr << "dhdld: " << st.diag().str() << "\n";
        return 1;
    }
    gServer = &server;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = onSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    if (!portFile.empty()) {
        std::ofstream pf(portFile);
        pf << server.port() << "\n";
        if (!pf) {
            std::cerr << "dhdld: cannot write " << portFile << "\n";
            server.requestStop();
            server.wait();
            return 1;
        }
    }
    std::cout << "dhdld listening on 127.0.0.1:" << server.port()
              << std::endl; // endl: flush before callers parse it.

    server.wait();

    const serve::ServerCounters c = server.counters();
    const serve::PlanCache::Stats cs = server.cacheStats();
    std::cout << "dhdld drained: " << c.done << " done, " << c.failed
              << " failed, " << c.cancelled << " cancelled, "
              << c.rejected << " rejected; plan cache " << cs.hits
              << " hit(s) / " << cs.misses << " miss(es)"
              << std::endl;
    return 0;
}
