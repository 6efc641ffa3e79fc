/**
 * Evaluation-throughput tracker: points/sec of the DSE evaluation
 * pipeline on the figure5-style sweep (same sampling, serial
 * evaluation) for every benchmark app. Emits
 * BENCH_eval_throughput.json so the performance trajectory of the
 * per-point evaluation path is tracked from PR 3 onward.
 *
 * The headline series is the GDA sweep (the paper's running example
 * and the densest design space); a google-benchmark timer covers the
 * same sweep for local iteration.
 *
 * Each app is swept once per thread count (1, 4, 8) so the JSON
 * tracks thread scaling of the batched pipeline alongside the
 * serial headline row.
 *
 * Knobs:
 *   DHDL_BENCH_SCALE   dataset scale factor (default 1.0 = Table II)
 *   DHDL_EVAL_POINTS   points sampled per app (default 2000)
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <vector>

#include "bench_common.hh"
#include "obs/metrics.hh"

using namespace dhdl;

namespace {

int
evalPoints()
{
    return int(bench::envInt("DHDL_EVAL_POINTS", 2000));
}

/** Thread counts measured per app; the first is the headline row. */
constexpr int kThreadCounts[] = {1, 4, 8};

struct Row {
    std::string app;
    int threads = 1;
    size_t requested = 0;
    size_t sampled = 0;
    size_t evaluated = 0;
    double seconds = 0;
    double pointsPerSec = 0;
    // Per-stage wall-clock for this app's sweep, in microseconds,
    // read back from the obs metrics registry (snapshot delta).
    uint64_t instantiateUs = 0;
    uint64_t areaUs = 0;
    uint64_t runtimeUs = 0;
    uint64_t validateUs = 0;
    uint64_t planUs = 0;
};

/**
 * One figure5-style sweep: sample up to `points` legal bindings and
 * evaluate all of them. Throughput is evaluated points over the
 * explore() wall clock (sampling included — it is part of the
 * per-point cost a user pays).
 */
Row
measureApp(const apps::AppEntry& app, double scale, int points,
           int threads)
{
    using Clock = std::chrono::steady_clock;
    Design d = app.build(scale);
    dse::ExploreConfig cfg;
    cfg.maxPoints = points;
    cfg.threads = threads;
    auto t0 = Clock::now();
    auto res = bench::explorer().explore(d.graph(), cfg);
    double dt = std::chrono::duration<double>(Clock::now() - t0).count();

    Row r;
    r.app = app.name;
    r.threads = threads;
    r.requested = res.stats.requested;
    r.sampled = res.stats.total;
    r.evaluated = res.stats.evaluated;
    r.seconds = dt;
    r.pointsPerSec = dt > 0 ? double(res.stats.evaluated) / dt : 0;
    return r;
}

/**
 * Delta of a monotone obs counter across one measured sweep. The
 * registry is process-global, so per-app numbers are snapshot diffs.
 */
uint64_t
delta(const obs::MetricsSnapshot& before,
      const obs::MetricsSnapshot& after, const std::string& name)
{
    return after.counter(name) - before.counter(name);
}

/** The headline series: GDA, tracked by the acceptance criterion. */
void
BM_Figure5GdaSweep(benchmark::State& state)
{
    double scale = bench::benchScale();
    int points = evalPoints();
    Design d = apps::buildGda(
        {apps::scaledSize(apps::PaperSizes::gdaR, scale, 960),
         apps::PaperSizes::gdaC});
    dse::ExploreConfig cfg;
    cfg.maxPoints = points;
    cfg.threads = 1;
    for (auto _ : state) {
        auto res = bench::explorer().explore(d.graph(), cfg);
        state.SetItemsProcessed(state.items_processed() +
                                int64_t(res.stats.evaluated));
        benchmark::DoNotOptimize(res.pareto);
    }
}
BENCHMARK(BM_Figure5GdaSweep)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void
writeJson(const std::vector<Row>& rows, double scale, int points,
          int batch)
{
    std::ofstream os("BENCH_eval_throughput.json");
    os << std::setprecision(10);
    os << "{\n  \"bench\": \"eval_throughput\",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"points_per_app\": " << points << ",\n"
       << "  \"batch_size\": " << batch << ",\n  \"apps\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        os << "    {\"app\": \"" << r.app << "\", \"threads\": "
           << r.threads << ", \"requested\": " << r.requested
           << ", \"sampled\": " << r.sampled << ", \"evaluated\": "
           << r.evaluated << ", \"seconds\": " << r.seconds
           << ", \"points_per_sec\": " << r.pointsPerSec
           << ",\n     \"stage_us\": {\"instantiate\": "
           << r.instantiateUs << ", \"area\": " << r.areaUs
           << ", \"runtime\": " << r.runtimeUs << ", \"validate\": "
           << r.validateUs << ", \"plan_compile\": " << r.planUs
           << "}}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace

int
main(int argc, char** argv)
{
    double scale = bench::benchScale();
    int points = evalPoints();

    // Per-stage breakdowns come from the obs registry; turn it on
    // unless the environment explicitly says otherwise (DHDL_OBS=0
    // measures the uninstrumented path).
    obs::setEnabled(obs::envEnabled().value_or(true));

    const int batch = dse::ExploreConfig{}.batchSize;
    std::cout << "Evaluation throughput (scale=" << scale << ", up to "
              << points << " points/app, batch=" << batch << ")\n\n";

    // Warm the calibrated estimator so calibration cost (a per-process
    // one-off) never lands inside a measured sweep.
    (void)est::calibratedEstimator();

    std::cout << std::left << std::setw(14) << "Benchmark"
              << std::right << std::setw(8) << "threads"
              << std::setw(10) << "points" << std::setw(12)
              << "seconds" << std::setw(14) << "points/sec" << "\n";
    bench::rule(58);

    std::vector<Row> rows;
    for (const auto& app : apps::allApps()) {
        for (int threads : kThreadCounts) {
            auto before = obs::snapshotMetrics();
            Row r = measureApp(app, scale, points, threads);
            auto after = obs::snapshotMetrics();
            r.instantiateUs =
                delta(before, after, "dse.stage.instantiate.us");
            r.areaUs = delta(before, after, "dse.stage.area.us");
            r.runtimeUs = delta(before, after, "dse.stage.runtime.us");
            r.validateUs = delta(before, after, "dse.stage.validate.us");
            r.planUs = delta(before, after, "dse.plan.compile.us");
            rows.push_back(r);
            std::cout << std::left << std::setw(14) << r.app
                      << std::right << std::setw(8) << r.threads
                      << std::setw(10) << r.evaluated << std::setw(12)
                      << bench::fmt(r.seconds, 3) << std::setw(14)
                      << bench::fmt(r.pointsPerSec, 0) << "\n";
            // A legal space smaller than the request is a property of
            // the design, not a failure — but it must never pass
            // silently, or a "2000-point" sweep quietly measures 708.
            if (threads == 1 && r.sampled < r.requested)
                std::cout << "  note: " << r.app << " sampled "
                          << r.sampled << " of " << r.requested
                          << " requested points (legal space "
                             "exhausted)\n";
        }
    }
    writeJson(rows, scale, points, batch);
    std::cout << "\nwrote BENCH_eval_throughput.json\n\n";

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
