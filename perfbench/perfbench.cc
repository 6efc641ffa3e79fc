/**
 * @file
 * perfbench: the repository benchmark binary. One invocation runs one
 * workload for a fixed wall-clock budget, checks every output it
 * produces, and prints one JSON object on stdout:
 *
 *   perfbench --workload sweep|guided|serve --seed N --seconds S
 *             --trace 0|1 [--tiny]
 *
 *   {"correct":..,"attempted":..,"failed":..,"failures":[..],
 *    "metrics":{"<name>":{"value":..,"unit":".."},..},
 *    "host":{..},"build":{..}}
 *
 * --trace 0 measures the end-to-end metrics with no layer timers,
 * every timing on a reference clock (see RefClock).
 * --trace 1 alternates untimed and layer-timed passes of the same
 * work and prints the per-layer metrics, each workload's
 * unattributed residual and the tracing overhead. Every layer is
 * timed from outside, around calls into its public functions.
 * --tiny shrinks every workload to a smoke-test size.
 *
 * perfbench/README.md maps each metric to its layer and workload;
 * perfbench/run.py builds this binary and prints the result line.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hh"
#include "codegen/maxj.hh"
#include "core/checksum.hh"
#include "core/parser.hh"
#include "core/passes.hh"
#include "core/printer.hh"
#include "dse/evaluator.hh"
#include "dse/explorer.hh"
#include "dse/pareto.hh"
#include "dse/space.hh"
#include "estimate/area_estimator.hh"
#include "estimate/runtime_estimator.hh"
#include "fpga/toolchain.hh"
#include "serve/client.hh"
#include "serve/json.hh"
#include "serve/server.hh"
#include "sim/timing.hh"

using namespace dhdl;
using serve::Json;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * CPU seconds the process has run: every thread, live or exited, user
 * and system. Time the host gives to other tenants, or steals from
 * this VM, does not count.
 */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/** Wall and process CPU time elapsed since construction. */
struct Watch {
    Clock::time_point wall0 = Clock::now();
    double cpu0 = cpuSeconds();

    double wall() const { return since(wall0); }
    double cpu() const { return cpuSeconds() - cpu0; }
};

/**
 * A fixed reference computation (floating-point chains, integer
 * hashing, gathers from a 256 KiB table, small allocations), about a
 * millisecond of CPU time. With `dram`, one hash in four also gathers
 * from a 16 MiB table, for work whose data does not fit in the core's
 * caches. Its code never changes, so its CPU time measures the host's
 * speed at the moment it runs.
 */
struct RefTables {
    std::vector<double> small, big;
};

const RefTables&
refTables()
{
    auto fill = [](size_t n) {
        std::vector<double> t(n);
        for (size_t i = 0; i < t.size(); ++i)
            t[i] = 1.0 + double(i % 97) / 97.0;
        return t;
    };
    static const RefTables t{fill(size_t(1) << 15), fill(size_t(1) << 21)};
    return t;
}

double
referenceKernel(bool dram)
{
    const std::vector<double>& table = refTables().small;
    const std::vector<double>& big = refTables().big;
    const double c0 = cpuSeconds();
    double acc[4] = {0, 0, 0, 0};
    uint64_t h = 0x9E3779B97F4A7C15ull;
    std::string text;
    for (int rep = 0; rep < 24; ++rep) {
        for (size_t i = 0; i < table.size(); i += 4)
            for (int k = 0; k < 4; ++k)
                acc[k] = acc[k] * 0.999 + table[i + k];
        for (int i = 0; i < 2048; ++i) {
            h ^= h >> 29;
            h *= 0xBF58476D1CE4E5B9ull;
            acc[i & 3] += table[h & (table.size() - 1)];
            if (dram && (i & 3) == 0)
                acc[0] += big[(h >> 20) & (big.size() - 1)];
            if (h & 1)
                text.push_back(char('a' + (h >> 59)));
        }
        std::vector<std::string> words;
        for (int i = 0; i < 64; ++i)
            words.push_back(text.substr(size_t(i) % (text.size() + 1)));
        h += words.back().size();
        text.resize(text.size() / 2);
    }
    volatile double sink = acc[0] + acc[1] + acc[2] + acc[3] + double(h);
    (void)sink;
    return cpuSeconds() - c0;
}

/** splitmix64 of (x, salt): independent per-purpose seeds. */
uint64_t
mix(uint64_t x, uint64_t salt)
{
    x += 0x9E3779B97F4A7C15ull * (salt + 1);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Linear-interpolated quantile (numpy's default); 0 when empty. */
double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = p * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

double
sum(const std::vector<double>& v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

/**
 * The clock every gated timing is read on. The CPU clock leaves out
 * time the host gives to other tenants, but on a shared machine it
 * still runs slower while the machine is busy: the same loop took
 * 1.3x to 2x more CPU time in busy minutes on the reference host. So
 * each unit of timed work (a set-up, a pass, a serving segment or
 * round) gets a clock of its own: referenceKernel() runs sampled
 * inside or right around it, and its CPU time divided by their median.
 * One ref_ms is one kernel run, about a millisecond of CPU time on the
 * reference host.
 */
class RefClock
{
  public:
    /** A clock for work whose data fits in the core's caches, or,
     *  with `dram`, for work whose data does not. */
    explicit RefClock(bool dram = false) : dram_(dram) {}

    /** Run the reference kernel `n` times and keep each CPU time. */
    void
    sample(int n = 1)
    {
        for (int i = 0; i < n; ++i)
            kernel_.push_back(referenceKernel(dram_));
    }

    /** CPU seconds spent in samples, to take out of a unit's time. */
    double total() const { return sum(kernel_); }

    /** CPU seconds of one kernel run: the median sample. */
    double kernelSeconds() const { return median(kernel_); }

    /** `cpu` CPU seconds on this clock, in ref_ms. */
    double ms(double cpu) const { return cpu / kernelSeconds(); }

  private:
    bool dram_;
    std::vector<double> kernel_;
};

/** Peak resident memory, less the reference kernel's tables (resident
 *  from the warm-up on, so part of every peak). */
double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    const RefTables& t = refTables();
    const double tables = double(t.small.size() + t.big.size()) * 8 / 1024;
    return (double(ru.ru_maxrss) - tables) / 1024.0; // Linux reports KiB.
}

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
};

/** Checks, failures and metrics of one run. */
struct Outcome {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
    Json metrics = Json::object();

    /** Count one checked operation; record why when it failed. */
    void
    check(bool ok, const std::string& what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 32)
            failures.push_back(what);
    }

    void
    put(const std::string& name, double value, const char* unit)
    {
        Json m = Json::object();
        m.set("value", std::isfinite(value) ? value : 0.0);
        m.set("unit", unit);
        metrics.set(name, std::move(m));
    }
};

/**
 * Wall time of calls into each layer, in seconds, one sample per
 * call. A null Ledger* means an untraced pass: timed() then calls
 * straight through with no clock reads.
 */
class Ledger
{
  public:
    void
    add(const std::string& layer, double s)
    {
        samples_[layer].push_back(s);
        total_ += s;
    }

    const std::vector<double>&
    samples(const std::string& layer) const
    {
        static const std::vector<double> none;
        auto it = samples_.find(layer);
        return it == samples_.end() ? none : it->second;
    }

    /** Seconds covered by every timed call so far. */
    double total() const { return total_; }

  private:
    std::map<std::string, std::vector<double>> samples_;
    double total_ = 0;
};

template <class F>
auto
timed(Ledger* led, const char* layer, F&& f)
{
    struct Span {
        Ledger* led;
        const char* layer;
        Clock::time_point t0;
        ~Span()
        {
            if (led)
                led->add(layer, since(t0));
        }
    } span{led, layer, led ? Clock::now() : Clock::time_point{}};
    return f();
}

/** Tracing overhead in ms: the median over (untimed, timed) pass
 *  pairs of the timed pass's extra wall time. */
double
overheadMs(const std::vector<double>& plain, const std::vector<double>& traced)
{
    std::vector<double> d;
    for (size_t i = 0; i < std::min(plain.size(), traced.size()); ++i)
        d.push_back(traced[i] - plain[i]);
    return median(d) * 1e3;
}

/** Median per-call time of a layer, in microseconds. */
double
medianUs(const Ledger& led, const std::string& layer)
{
    return median(led.samples(layer)) * 1e6;
}

/** Digest of a Pareto front: indices and both objectives, bitwise. */
uint64_t
frontDigest(const std::vector<dse::DesignPoint>& pts,
            const std::vector<size_t>& front)
{
    std::string bytes;
    for (size_t i : front) {
        const double xy[2] = {pts[i].area.alms, pts[i].cycles};
        bytes.append(reinterpret_cast<const char*>(&i), sizeof i);
        bytes.append(reinterpret_cast<const char*>(xy), sizeof xy);
    }
    return fnv1a(bytes);
}

/** Up to `take` front indices spread evenly along the front (the
 *  paper synthesizes five Pareto points per benchmark). */
std::vector<size_t>
spreadPicks(const std::vector<size_t>& front, size_t take)
{
    std::vector<size_t> out;
    const size_t n = front.size();
    const size_t want = std::min(take, n);
    for (size_t i = 0; i < want; ++i)
        out.push_back(front[want == 1 ? 0 : i * (n - 1) / (want - 1)]);
    return out;
}

double
relErr(double est, double truth)
{
    if (truth <= 0)
        return est > 0 ? 1.0 : 0.0;
    return std::fabs(est - truth) / truth;
}

/**
 * Explore seed of the Table III accuracy picks: the paper
 * configuration's default, independent of --seed. Which five points
 * a front yields moves the DSP error by 2x between seeds, so the
 * accuracy metrics take the fixed configuration and guard the
 * estimator model, not the sampler.
 */
const uint64_t kTable3Seed = dse::ExploreConfig{}.seed;

/** Table III error sums over picked points, averaged per design. */
struct Accuracy {
    double alm = 0, dsp = 0, bram = 0, runtime = 0;
    int designs = 0;

    /** Synthesize and simulate each pick; fold in its design's
     *  average errors. */
    void
    addDesign(const Graph& g, const std::vector<dse::DesignPoint>& pts,
              const std::vector<size_t>& picks)
    {
        if (picks.empty())
            return;
        const auto& tc = est::defaultToolchain();
        double a = 0, d = 0, b = 0, r = 0;
        for (size_t i : picks) {
            Inst inst(g, pts[i].binding);
            const auto pnr = tc.synthesize(inst);
            const double simCycles = sim::TimingSim(inst).run().cycles;
            a += relErr(pts[i].area.alms, pnr.alms);
            d += relErr(pts[i].area.dsps, pnr.dsps);
            b += relErr(pts[i].area.brams, pnr.brams);
            r += relErr(pts[i].cycles, simCycles);
        }
        const double k = double(picks.size());
        alm += a / k;
        dsp += d / k;
        bram += b / k;
        runtime += r / k;
        ++designs;
    }

    void
    report(Outcome& o) const
    {
        const double n = designs > 0 ? double(designs) : 1.0;
        o.put("alm_err_pct", 100 * alm / n, "%");
        o.put("dsp_err_pct", 100 * dsp / n, "%");
        o.put("bram_err_pct", 100 * bram / n, "%");
        o.put("runtime_err_pct", 100 * runtime / n, "%");
    }
};

/** Table III errors over random explores of the named designs at
 *  the paper configuration's seed. */
void
reportAccuracy(const std::vector<std::string>& names, double scale,
               int points, const dse::Explorer& ex, Outcome& o)
{
    Accuracy acc;
    for (const auto& name : names) {
        Design d = apps::buildApp(name, scale);
        dse::ExploreConfig cfg;
        cfg.maxPoints = points;
        cfg.threads = 4;
        cfg.seed = kTable3Seed;
        const auto res = ex.explore(d.graph(), cfg);
        acc.addDesign(d.graph(), res.points, spreadPicks(res.pareto, 5));
    }
    acc.report(o);
}

/**
 * The gated timings of an untraced run, all on reference clocks:
 * seconds per set-up, units of throughput per second, and ms per unit
 * of work (a pass, or a submission).
 */
void
putTimings(Outcome& o, const std::vector<double>& setupS,
           const std::vector<double>& perS, const std::vector<double>& unitMs)
{
    o.put("setup_s", median(setupS), "s");
    o.put("throughput_per_ref_s", median(perS), "1/ref_s");
    o.put("p50_ref_ms", median(unitMs), "ref_ms");
}

/** Run the standard pass pipeline; throws on a failing pass. */
void
runPasses(const Graph& g, Ledger* led)
{
    DiagSink sink;
    PassContext ctx(sink);
    PassManager pm = standardPasses();
    const Status st =
        timed(led, "core.passes_us", [&] { return pm.run(g, ctx); });
    if (!st.ok())
        throw std::runtime_error("standard passes failed: " +
                                 st.diag().message);
}

// ---------------------------------------------------------------------
// Set-up: estimator calibration (every workload pays it first).

struct Estimators {
    std::unique_ptr<est::AreaEstimator> area;
    est::RuntimeEstimator runtime;
};

std::string
savedCalibration(const est::AreaEstimator& a)
{
    std::ostringstream os;
    a.save(os);
    return os.str();
}

/**
 * One calibration, exactly what est::calibratedEstimator() does on
 * first use. Every repeat must reproduce the first calibration bit
 * for bit (checked by the caller).
 */
std::unique_ptr<est::AreaEstimator>
calibrate(double& cpu)
{
    const Watch w;
    auto a = std::make_unique<est::AreaEstimator>(est::defaultToolchain());
    cpu = w.cpu();
    return a;
}

/**
 * Set up `reps` times: calibrate, then `ready` — the workload's own
 * start-up until it could serve its first request. Returns each
 * set-up's time in seconds on a reference clock sampled right before
 * and after it, and keeps the first estimator.
 */
std::vector<double>
setUp(int reps, Estimators& out, std::vector<double>& calib, Outcome& o,
      const std::function<bool(const est::AreaEstimator&)>& ready)
{
    std::vector<double> setup;
    std::string first;
    bool same = true;
    for (int r = 0; r < reps; ++r) {
        RefClock clock;
        clock.sample(4);
        const Watch w;
        double cs = 0;
        auto a = calibrate(cs);
        o.check(ready(*a), "set-up failed");
        const double cpu = w.cpu();
        clock.sample(4);
        setup.push_back(clock.ms(cpu) * 1e-3);
        calib.push_back(cs);
        if (r == 0) {
            first = savedCalibration(*a);
            out.area = std::move(a);
        } else {
            same = same && savedCalibration(*a) == first;
        }
    }
    o.check(same, "calibration is not reproducible across set-ups");
    return setup;
}

// ---------------------------------------------------------------------
// sweep: the paper's full flow over every app.

struct Sizes {
    double scale;
    int points;
};

std::vector<std::string>
sweepApps()
{
    std::vector<std::string> names;
    for (const auto& app : apps::allApps())
        names.push_back(app.name);
    names.push_back("conv2d");
    return names;
}

/** One app's flow result inside one sweep pass. */
struct Flow {
    size_t evaluated = 0;
    size_t valid = 0;
    uint64_t digest = 0;
    double simCycles = 0;
};

Flow
runFlow(const std::string& app, const Sizes& sz, uint64_t seed,
        const dse::Explorer& ex, Ledger* led, Outcome& o)
{
    Flow f;
    Design d =
        timed(led, "apps.build_us", [&] { return apps::buildApp(app, sz.scale); });
    const Graph& g = d.graph();
    runPasses(g, led);
    dse::ExploreConfig cfg;
    cfg.maxPoints = sz.points;
    cfg.seed = seed;
    const dse::ExploreResult res =
        timed(led, "dse.explore", [&] { return ex.explore(g, cfg); });
    f.evaluated = res.stats.evaluated;
    f.valid = res.stats.valid;
    f.digest = frontDigest(res.points, res.pareto);
    o.check(res.stats.failed == 0 && !res.pareto.empty(),
            app + ": explore failed points or found no valid design");

    const auto& tc = est::defaultToolchain();
    const auto picks = spreadPicks(res.pareto, 5);
    for (size_t i : picks) {
        Inst inst(g, res.points[i].binding);
        const auto pnr =
            timed(led, "fpga.synthesize_us", [&] { return tc.synthesize(inst); });
        const auto sim = timed(led, "sim.timing_us",
                               [&] { return sim::TimingSim(inst).run(); });
        const std::string maxj = timed(
            led, "codegen.maxj_us", [&] { return codegen::emitMaxj(inst); });
        f.simCycles += sim.cycles;
        o.check(pnr.alms > 0 && sim.cycles > 0 && !maxj.empty(),
                app + ": synthesize/simulate/emit produced no output");
    }
    return f;
}

/**
 * One app's explore, checked three ways against the timed passes:
 * decomposed into the public calls explore() makes (sampleGlobal,
 * plan compile, evaluateBatch, paretoOf), run on 4 threads, and — in
 * a traced run, for the residual and the pool speed-up — run again on
 * 1 thread. Returns the front digest of each.
 */
struct Replay {
    uint64_t replayDigest = 0;
    uint64_t fourDigest = 0;
    uint64_t oneDigest = 0;
    size_t sampled = 0;
};

Replay
replayExplore(const std::string& app, const Sizes& sz, uint64_t seed,
              const Estimators& es, Ledger* led)
{
    Design d = apps::buildApp(app, sz.scale);
    const Graph& g = d.graph();
    runPasses(g, nullptr);
    dse::ExploreConfig cfg;
    cfg.maxPoints = sz.points;
    cfg.seed = seed;

    const auto bindings = timed(led, "dse.sample", [&] {
        dse::ParamSpace space(g);
        return dse::sampleGlobal(space, cfg);
    });
    auto plan = timed(led, "analysis.plan_compile_us",
                      [&] { return dse::Evaluator::tryCompile(g); });
    std::vector<dse::DesignPoint> pts(bindings.size());
    std::vector<size_t> idx(bindings.size());
    for (size_t i = 0; i < pts.size(); ++i) {
        pts[i].binding = bindings[i];
        idx[i] = i;
    }
    timed(led, "dse.eval", [&] {
        dse::Evaluator ev(*es.area, es.runtime, g, plan);
        DiagSink sink;
        const size_t batch = size_t(cfg.batchSize);
        for (size_t off = 0; off < pts.size(); off += batch)
            ev.evaluateBatch(pts, idx.data() + off,
                             std::min(batch, pts.size() - off), nullptr,
                             sink);
    });
    const auto front =
        timed(led, "dse.pareto_us", [&] { return dse::paretoOf(pts); });

    Replay r;
    r.replayDigest = frontDigest(pts, front);
    r.sampled = pts.size();
    dse::Explorer ex(*es.area, es.runtime);
    cfg.threads = 4;
    const auto four =
        timed(led, "dse.explore_4t", [&] { return ex.explore(g, cfg); });
    r.fourDigest = frontDigest(four.points, four.pareto);
    if (led) {
        cfg.threads = 1;
        const auto one =
            timed(led, "dse.explore_1t", [&] { return ex.explore(g, cfg); });
        r.oneDigest = frontDigest(one.points, one.pareto);
    }
    return r;
}

void
runSweep(const Options& opt, Outcome& o)
{
    const Sizes sz = opt.tiny ? Sizes{0.05, 2000} : Sizes{1.0, 40000};
    const int reps = opt.tiny ? 2 : 5;
    Estimators es;
    std::vector<double> calib;
    const auto setup = setUp(reps, es, calib, o,
                             [](const est::AreaEstimator&) { return true; });
    const dse::Explorer ex(*es.area, es.runtime);
    const auto names = sweepApps();
    auto seedOf = [&](size_t a) { return mix(opt.seed, a); };

    // Timed passes, single-threaded: on a shared host a 4-thread pass
    // times the neighbours' load, not the program. An untraced pass
    // samples its reference clock between apps. In a traced run every
    // other pass is timed layer by layer; the untimed ones give the
    // tracing overhead, and the host is sampled between passes.
    Ledger led;
    RefClock host(true);
    std::vector<double> plain, plainMs, traced, rates, tracedCovered;
    std::vector<Flow> firstPass;
    const auto t0 = Clock::now();
    for (int pass = 0;; ++pass) {
        const bool trace = opt.trace && pass % 2 == 1;
        const double covered0 = led.total();
        if (opt.trace)
            host.sample(8);
        // Each explore's points and bindings take megabytes.
        RefClock clock(true);
        const Watch w;
        std::vector<Flow> flows;
        size_t evaluated = 0;
        for (size_t a = 0; a < names.size(); ++a) {
            if (!opt.trace)
                clock.sample(2);
            flows.push_back(runFlow(names[a], sz, seedOf(a), ex,
                                    trace ? &led : nullptr, o));
            evaluated += flows.back().evaluated;
        }
        const double dt = w.wall();
        (trace ? traced : plain).push_back(dt);
        if (trace) {
            tracedCovered.push_back(led.total() - covered0);
        } else if (!opt.trace) {
            const double ms = clock.ms(w.cpu() - clock.total());
            plainMs.push_back(ms);
            rates.push_back(double(evaluated) / ms * 1e3);
        }
        if (pass == 0) {
            firstPass = flows;
        } else {
            for (size_t a = 0; a < flows.size(); ++a)
                o.check(flows[a].digest == firstPass[a].digest,
                        names[a] + ": front differs between passes");
        }
        const int minPasses = opt.trace ? 2 : 1;
        if (pass + 1 >= minPasses && since(t0) >= opt.seconds)
            break;
    }
    // Before the 4-thread checks below, whose per-thread heaps would
    // set the peak.
    const double rss = peakRssMb();

    // Output check: the front of every app equals its 4-thread front
    // and the front of the decomposed replay of its public calls.
    Ledger rled;
    double sampled = 0;
    for (size_t a = 0; a < names.size(); ++a) {
        const Replay r = replayExplore(names[a], sz, seedOf(a), es,
                                       opt.trace ? &rled : nullptr);
        sampled += double(r.sampled);
        o.check(r.fourDigest == firstPass[a].digest,
                names[a] + ": 4-thread front != 1-thread front");
        o.check(r.replayDigest == firstPass[a].digest,
                names[a] + ": decomposed replay front != explore front");
        if (opt.trace)
            o.check(r.oneDigest == firstPass[a].digest,
                    names[a] + ": replayed explore front != pass front");
    }

    size_t evaluated = 0, valid = 0;
    double cycles = 0;
    for (const Flow& f : firstPass) {
        evaluated += f.evaluated;
        valid += f.valid;
        cycles += f.simCycles;
    }
    o.check(evaluated > 0 && valid > 0, "sweep evaluated no valid point");

    if (!opt.trace) {
        putTimings(o, setup, rates, plainMs);
        o.put("peak_rss_mb", rss, "MB");
        reportAccuracy(names, sz.scale, sz.points, ex, o);
        return;
    }

    const double one = sum(rled.samples("dse.explore_1t"));
    const double parts = sum(rled.samples("dse.sample")) +
                         sum(rled.samples("analysis.plan_compile_us")) +
                         sum(rled.samples("dse.eval")) +
                         sum(rled.samples("dse.pareto_us"));
    o.put("estimate.calibrate_s", median(calib), "s");
    o.put("apps.build_us", medianUs(led, "apps.build_us"), "us");
    o.put("core.passes_us", medianUs(led, "core.passes_us"), "us");
    o.put("core.emit_ir_us", 0, "us");
    o.put("core.parse_ir_us", 0, "us");
    o.put("analysis.plan_compile_us",
          medianUs(rled, "analysis.plan_compile_us"), "us");
    o.put("dse.sample_us_per_pt",
          sum(rled.samples("dse.sample")) / sampled * 1e6, "us");
    o.put("dse.eval_us_per_pt", sum(rled.samples("dse.eval")) / sampled * 1e6,
          "us");
    o.put("dse.pareto_us", medianUs(rled, "dse.pareto_us"), "us");
    o.put("dse.explore_unattributed_frac", (one - parts) / one, "frac");
    o.put("cpu.pool_speedup_4t", one / sum(rled.samples("dse.explore_4t")),
          "x");
    o.put("sweep.pts_evaluated", double(evaluated), "count");
    o.put("sweep.pts_valid", double(valid), "count");
    o.put("fpga.synthesize_us", medianUs(led, "fpga.synthesize_us"), "us");
    o.put("sim.timing_us", medianUs(led, "sim.timing_us"), "us");
    o.put("codegen.maxj_us", medianUs(led, "codegen.maxj_us"), "us");
    o.put("sim.cycles_total", cycles, "count");
    o.put("wall_p50_ms", median(plain) * 1e3, "ms");
    o.put("host.ref_cpu_us", host.kernelSeconds() * 1e6, "us");
    o.put("unattributed_frac",
          1 - sum(tracedCovered) / sum(traced), "frac");
    o.put("trace.overhead_ms", overheadMs(plain, traced), "ms");
}

// ---------------------------------------------------------------------
// guided: surrogate-strategy search against a random reference.

using XY = std::pair<double, double>; // (alms, cycles)

std::vector<XY>
frontXY(const std::vector<XY>& pts)
{
    const auto idx = dse::paretoFront(
        pts.size(), [&](size_t i) { return pts[i].first; },
        [&](size_t i) { return pts[i].second; });
    std::vector<XY> out;
    for (size_t i : idx)
        out.push_back(pts[i]);
    return out;
}

/** Average distance to the reference set: per reference point, the
 *  smallest worst-axis relative gap to any achieved point. */
double
adrs(const std::vector<XY>& ref, const std::vector<XY>& got)
{
    if (ref.empty())
        return 0;
    if (got.empty())
        return 1e30;
    double total = 0;
    for (const XY& r : ref) {
        double best = 1e30;
        for (const XY& g : got) {
            const double dx = (g.first - r.first) / r.first;
            const double dy = (g.second - r.second) / r.second;
            best = std::min(best, std::max({dx, dy, 0.0}));
        }
        total += best;
    }
    return total / double(ref.size());
}

/** ADRS of the front over the first n evaluations of `order`. */
double
prefixAdrs(const std::vector<XY>& ref,
           const std::vector<dse::DesignPoint>& pts,
           const std::vector<size_t>& order, size_t n)
{
    std::vector<XY> got;
    for (size_t k = 0; k < n && k < order.size(); ++k)
        if (pts[order[k]].valid)
            got.push_back({pts[order[k]].area.alms, pts[order[k]].cycles});
    return adrs(ref, frontXY(got));
}

struct GuidedSizes {
    double scale;
    int pool;
    int budget;
};

struct Search {
    std::vector<size_t> order; //!< Evaluation order, all rounds.
    dse::ExploreResult res;
};

/** One search; `clock`, when given, is sampled after every round. */
Search
runSearch(const std::string& app, const GuidedSizes& sz, uint64_t seed,
          const dse::Explorer& ex, Ledger* led, Outcome& o,
          RefClock* clock = nullptr)
{
    Design d =
        timed(led, "apps.build_us", [&] { return apps::buildApp(app, sz.scale); });
    const Graph& g = d.graph();
    runPasses(g, led);
    dse::ExploreConfig cfg;
    cfg.maxPoints = sz.pool;
    cfg.seed = seed;
    cfg.strategy = dse::StrategyKind::Surrogate;
    cfg.evalBudget = sz.budget;
    if (clock)
        cfg.onRound = [clock](const dse::RoundStats&, const dse::ParetoFront&,
                              const std::vector<dse::DesignPoint>&) {
            clock->sample(2);
        };
    Search s;
    s.res = ex.explore(g, cfg);
    for (const dse::RoundStats& rs : s.res.stats.rounds) {
        s.order.insert(s.order.end(), rs.evalOrder.begin(),
                       rs.evalOrder.end());
        if (led) {
            led->add("dse.strategy.propose_s", rs.proposeSeconds);
            led->add("dse.strategy.train_s", rs.trainSeconds);
            led->add("dse.strategy.rank_s", rs.rankSeconds);
            led->add("dse.guided.eval_s", rs.evalSeconds);
        }
    }
    o.check(s.res.stats.failed == 0 && !s.res.pareto.empty(),
            app + ": guided search failed points or found no design");
    return s;
}

void
runGuided(const Options& opt, Outcome& o)
{
    const GuidedSizes sz =
        opt.tiny ? GuidedSizes{0.05, 500, 60} : GuidedSizes{1.0, 4000, 300};
    const std::vector<std::string> names = {"gda", "kmeans", "gemm"};
    const int reps = opt.tiny ? 2 : 5;
    Estimators es;
    std::vector<double> calib;
    const auto setup = setUp(reps, es, calib, o,
                             [](const est::AreaEstimator&) { return true; });
    const dse::Explorer ex(*es.area, es.runtime);
    // Search cost depends on the seed, so every pass draws fresh
    // seeds and a run measures many. A traced run gives each
    // untimed/timed pair of passes the same seeds, so the pair's
    // difference is the tracing overhead alone.
    auto seedOf = [&](int pass, size_t a) {
        const int set = opt.trace ? pass / 2 : pass;
        return mix(mix(opt.seed, 100 + uint64_t(set)), a);
    };

    // A traced pass times build and passes per app; the per-round
    // propose/train/rank/eval split comes from the RoundStats
    // explore() returns. The search driver's own work between rounds
    // is what unattributed_frac leaves over.
    // An untraced pass samples its reference clock after every round
    // of every search: a pass is a few long searches, and the host's
    // speed moves within one.
    Ledger led;
    RefClock host;
    std::vector<double> plain, plainMs, traced, rates, tracedCovered;
    std::vector<Search> firstPass;
    const auto t0 = Clock::now();
    for (int pass = 0;; ++pass) {
        const bool trace = opt.trace && pass % 2 == 1;
        const double setup0 = sum(led.samples("apps.build_us")) +
                              sum(led.samples("core.passes_us"));
        if (opt.trace)
            host.sample(16);
        RefClock clock;
        const Watch w;
        std::vector<Search> searches;
        size_t evaluated = 0;
        for (size_t a = 0; a < names.size(); ++a) {
            searches.push_back(runSearch(names[a], sz, seedOf(pass, a), ex,
                                         trace ? &led : nullptr, o,
                                         opt.trace ? nullptr : &clock));
            evaluated += searches.back().order.size();
        }
        const double dt = w.wall();
        (trace ? traced : plain).push_back(dt);
        if (trace) {
            // Covered: build and passes, plus each round's propose
            // (which contains train and rank) and evaluation slice.
            double covered = sum(led.samples("apps.build_us")) +
                             sum(led.samples("core.passes_us")) - setup0;
            for (const Search& s : searches)
                for (const auto& rs : s.res.stats.rounds)
                    covered += rs.proposeSeconds + rs.evalSeconds;
            tracedCovered.push_back(covered);
        } else if (!opt.trace) {
            const double ms = clock.ms(w.cpu() - clock.total());
            plainMs.push_back(ms);
            rates.push_back(double(evaluated) / ms * 1e3);
        }
        if (pass == 0)
            firstPass = std::move(searches);
        const int minPasses = opt.trace ? 2 : 1;
        if (pass + 1 >= minPasses && since(t0) >= opt.seconds)
            break;
    }

    // Output check: a second search with the same seed evaluates the
    // same points in the same order. One app per run, chosen by the
    // seed, keeps the check's cost to a single search.
    const size_t again = opt.seed % names.size();
    o.check(runSearch(names[again], sz, seedOf(0, again), ex, nullptr, o)
                    .order == firstPass[again].order,
            names[again] + ": same-seed searches evaluated different points");

    // Quality against the reference front of the full random sweep
    // of the same pool (untimed).
    double logRatio = 0, evalsToFront = 0;
    for (size_t a = 0; a < names.size(); ++a) {
        Design d = apps::buildApp(names[a], sz.scale);
        const Graph& g = d.graph();
        dse::ExploreConfig cfg;
        cfg.maxPoints = sz.pool;
        cfg.seed = seedOf(0, a);
        const auto ref = ex.explore(g, cfg);
        std::vector<XY> refPts;
        for (size_t i : ref.pareto)
            refPts.push_back({ref.points[i].area.alms, ref.points[i].cycles});
        const Search& s = firstPass[a];
        const size_t n = s.order.size();
        std::vector<size_t> prefix(std::min(n, ref.points.size()));
        for (size_t i = 0; i < prefix.size(); ++i)
            prefix[i] = i;
        const double got = prefixAdrs(refPts, s.res.points, s.order, n);
        const double base = prefixAdrs(refPts, ref.points, prefix, n);
        logRatio += std::log(std::max(got, 1e-6) / std::max(base, 1e-6));
        // Smallest prefix of the evaluation order within 2% ADRS;
        // the prefix ADRS only falls with n, so bisect.
        size_t lo = 1, hi = n;
        while (lo < hi) {
            const size_t mid = lo + (hi - lo) / 2;
            if (prefixAdrs(refPts, s.res.points, s.order, mid) <= 0.02)
                hi = mid;
            else
                lo = mid + 1;
        }
        evalsToFront += double(lo);
    }

    if (!opt.trace) {
        putTimings(o, setup, rates, plainMs);
        o.put("peak_rss_mb", peakRssMb(), "MB");
        Accuracy acc;
        for (const auto& name : names) {
            Design d = apps::buildApp(name, sz.scale);
            const Search s = runSearch(name, sz, kTable3Seed, ex, nullptr, o);
            acc.addDesign(d.graph(), s.res.points, spreadPicks(s.res.pareto, 5));
        }
        acc.report(o);
        return;
    }

    const double passes = double(traced.size());
    auto perPass = [&](const char* layer) {
        return sum(led.samples(layer)) / passes;
    };
    size_t rounds = 0;
    for (const Search& s : firstPass)
        rounds += s.res.stats.rounds.size();
    o.put("estimate.calibrate_s", median(calib), "s");
    o.put("apps.build_us", medianUs(led, "apps.build_us"), "us");
    o.put("core.passes_us", medianUs(led, "core.passes_us"), "us");
    o.put("dse.strategy.propose_s", perPass("dse.strategy.propose_s"), "s");
    o.put("dse.strategy.train_s", perPass("dse.strategy.train_s"), "s");
    o.put("dse.strategy.rank_s", perPass("dse.strategy.rank_s"), "s");
    o.put("dse.guided.eval_s", perPass("dse.guided.eval_s"), "s");
    o.put("dse.guided.rounds", double(rounds), "count");
    o.put("dse.guided.evals_to_front", evalsToFront, "count");
    o.put("dse.guided.adrs_ratio",
          std::exp(logRatio / double(names.size())), "ratio");
    o.put("wall_p50_ms", median(plain) * 1e3, "ms");
    o.put("host.ref_cpu_us", host.kernelSeconds() * 1e6, "us");
    o.put("unattributed_frac",
          1 - sum(tracedCovered) / sum(traced), "frac");
    o.put("trace.overhead_ms", overheadMs(plain, traced), "ms");
}

// ---------------------------------------------------------------------
// serve: an in-process dhdld driven over loopback.

const std::vector<std::string> kServeDesigns = {
    "dotproduct", "outerprod", "gemm", "tpchq6",
    "blackscholes", "gda", "kmeans", "conv2d"};
constexpr double kServeScale = 0.05;
constexpr int kServePoints = 200;
constexpr int kClients = 4;
constexpr int kJobSeeds = 4;
/** Ops per server instance in the open loop and the sequential phase:
 *  the server keeps every job's result, so a fresh server per segment
 *  bounds memory. */
constexpr size_t kSegment = 500;

/** One generated protocol operation. */
struct Op {
    enum Kind : uint8_t { Named, Ir, Status, Metrics } kind = Named;
    uint8_t design = 0;
    uint64_t jobSeed = 0;
};

/**
 * The traffic mix, op i of stream `stream`: 4 in 5 ops are explore
 * submissions, 1 in 8 of those carries never-seen `.dhdl` IR text;
 * the rest are `status` and `metrics` reads.
 */
Op
opAt(uint64_t seed, uint64_t stream, uint64_t i)
{
    const uint64_t r = mix(mix(seed, stream), i);
    Op op;
    const unsigned kind = unsigned(r % 40);
    op.kind = kind < 4     ? Op::Ir
              : kind < 32  ? Op::Named
              : kind < 36  ? Op::Status
                           : Op::Metrics;
    op.design = uint8_t((r >> 8) % kServeDesigns.size());
    op.jobSeed = 1 + (r >> 16) % kJobSeeds;
    return op;
}

/** Canonical post-pass IR of every served design, built once. */
struct IrBank {
    std::vector<std::string> text;

    IrBank()
    {
        for (const auto& name : kServeDesigns) {
            Design d = apps::buildApp(name, kServeScale);
            runPasses(d.graph(), nullptr);
            text.push_back(emitIR(d.graph()));
        }
    }

    /** The design's IR renamed to `tag`: new bytes, so its content
     *  hash has never been seen by the plan cache. */
    std::string
    variant(size_t design, const std::string& tag) const
    {
        std::string s = text[design];
        const std::string from = "design \"" + kServeDesigns[design] + "\"";
        const size_t at = s.find(from);
        if (at == std::string::npos)
            throw std::logic_error("no design line in the IR of " +
                                   kServeDesigns[design]);
        s.replace(at, from.size(), "design \"" + tag + "\"");
        return s;
    }
};

std::string
irTag(const Op& op, uint64_t stream, uint64_t i)
{
    return kServeDesigns[op.design] + "~" + std::to_string(stream) + "~" +
           std::to_string(i);
}

/** What the client saw for one op. */
struct OpRecord {
    Op op;
    uint64_t stream = 0, index = 0;
    bool ok = false;
    bool traced = false;
    bool cached = false;
    double due = 0, sent = 0, ack = 0, first = 0, done = 0; //!< s
    double encode = 0, decode = 0;                          //!< s
    size_t resultBytes = 0;
    uint64_t resultHash = 0;
    std::string error;
};

Json
submitJson(const Op& op, const IrBank& bank, uint64_t stream, uint64_t i,
           int client)
{
    Json cfg = Json::object();
    cfg.set("points", kServePoints);
    cfg.set("seed", op.jobSeed);
    Json req = Json::object();
    req.set("op", "submit");
    req.set("tenant", "bench-" + std::to_string(client));
    if (op.kind == Op::Ir) {
        req.set("ir", bank.variant(op.design, irTag(op, stream, i)));
    } else {
        req.set("design", kServeDesigns[op.design]);
        req.set("scale", kServeScale);
    }
    req.set("config", cfg);
    req.set("stream", true);
    req.set("proto", serve::kProtocolVersion);
    return req;
}

/** One protocol client and the last job it submitted. */
struct Conn {
    serve::Client c;
    uint64_t lastJob = 0;
    int id = 0;
};

/**
 * Execute one op on a connection. A traced op times the request
 * encode, every response decode and the ack / first-event / done
 * stamps; an untraced one reads only the clock at send and done.
 */
void
execute(Conn& conn, const IrBank& bank, Clock::time_point epoch,
        OpRecord& rec)
{
    auto now = [&] { return since(epoch); };
    Op op = rec.op;
    if (op.kind == Op::Status && conn.lastJob == 0)
        op.kind = Op::Metrics;
    Json req = Json::object();
    if (op.kind == Op::Named || op.kind == Op::Ir) {
        req = submitJson(op, bank, rec.stream, rec.index, conn.id);
    } else if (op.kind == Op::Status) {
        req.set("op", "status");
        req.set("job", conn.lastJob);
        req.set("proto", serve::kProtocolVersion);
    } else {
        req.set("op", "metrics");
        req.set("proto", serve::kProtocolVersion);
    }
    rec.op = op;
    rec.sent = now();
    auto tt = rec.traced ? Clock::now() : Clock::time_point{};
    const std::string line = req.render();
    if (rec.traced)
        rec.encode = since(tt);
    if (!conn.c.sendLine(line).ok()) {
        rec.error = "send failed";
        return;
    }
    std::string raw;
    Json resp;
    auto read = [&]() {
        if (!conn.c.recvLine(raw).ok())
            return false;
        tt = rec.traced ? Clock::now() : Clock::time_point{};
        const bool parsed = serve::parseJson(raw, resp).ok();
        if (rec.traced)
            rec.decode += since(tt);
        return parsed;
    };
    if (!read()) {
        rec.error = "no response";
        return;
    }
    const Json* ok = resp.find("ok");
    if (!ok || !ok->asBool()) {
        rec.error = "refused: " + raw.substr(0, 200);
        return;
    }
    if (op.kind == Op::Status || op.kind == Op::Metrics) {
        rec.done = now();
        rec.ok = resp.find(op.kind == Op::Metrics ? "text" : "state");
        if (!rec.ok)
            rec.error = "read response lacks its payload";
        return;
    }
    if (rec.traced)
        rec.ack = now();
    conn.lastJob = uint64_t(resp.find("job")->asInt());
    rec.cached = resp.find("cached") && resp.find("cached")->asBool();
    while (true) {
        if (!read()) {
            rec.error = "stream broke";
            return;
        }
        if (rec.traced && rec.first == 0)
            rec.first = now();
        const Json* ev = resp.find("event");
        if (!ev || ev->asString() != "done")
            continue;
        rec.done = now();
        const Json* state = resp.find("state");
        const Json* result = resp.find("result");
        if (!state || state->asString() != "done" || !result) {
            rec.error = "job ended " + raw.substr(0, 200);
            return;
        }
        rec.resultBytes = raw.size();
        rec.resultHash = fnv1a(result->render());
        rec.ok = true;
        return;
    }
}

serve::ServerConfig
serverConfig()
{
    serve::ServerConfig cfg;
    cfg.executors = 4;
    cfg.jobThreads = 1;
    cfg.maxQueue = 256;
    cfg.tenantMaxJobs = 64;
    return cfg;
}

/** A started server plus kClients connected, handshaken clients. */
struct Service {
    std::unique_ptr<serve::Server> server;
    std::vector<std::unique_ptr<Conn>> conns;

    bool
    open(const Estimators& es, int clients)
    {
        server = std::make_unique<serve::Server>(*es.area, es.runtime,
                                                 serverConfig());
        if (!server->start().ok())
            return false;
        for (int i = 0; i < clients; ++i) {
            auto c = std::make_unique<Conn>();
            c->id = i;
            if (!c->c.connect(std::to_string(server->port())).ok() ||
                !c->c.hello().ok())
                return false;
            conns.push_back(std::move(c));
        }
        return true;
    }

    /** Submit every named design once so the plan cache is warm. */
    void
    warm(const IrBank& bank, Outcome& o)
    {
        for (size_t d = 0; d < kServeDesigns.size(); ++d) {
            OpRecord rec;
            rec.op = Op{Op::Named, uint8_t(d), 1};
            rec.stream = 999;
            execute(*conns[0], bank, Clock::now(), rec);
            o.check(rec.ok, "warm-up submit of " + kServeDesigns[d] +
                                " failed: " + rec.error);
        }
    }

    ~Service()
    {
        conns.clear();
        if (server) {
            server->requestStop();
            server->wait();
            server.reset();
        }
        // Hand the dead server's heap back, so each instance's peak
        // starts from the same floor.
        malloc_trim(0);
    }
};

/** Offline reference results, memoized per distinct request. */
struct Offline {
    struct Entry {
        uint64_t hash = 0;
        double exploreS = 0;
    };
    const Estimators& es;
    const IrBank& bank;
    std::map<std::string, Entry> memo;

    /** resultToJson of an offline explore of the same request. */
    const Entry&
    of(const OpRecord& r)
    {
        const bool ir = r.op.kind == Op::Ir;
        const std::string key =
            (ir ? irTag(r.op, r.stream, r.index)
                : kServeDesigns[r.op.design]) +
            "/" + std::to_string(r.op.jobSeed);
        auto it = memo.find(key);
        if (it != memo.end())
            return it->second;
        std::optional<Graph> g;
        if (ir) {
            ParseResult pr = parseIR(bank.variant(
                r.op.design, irTag(r.op, r.stream, r.index)));
            if (!pr.ok())
                throw std::runtime_error("offline parse failed");
            g = std::move(*pr.graph);
        } else {
            Design d = apps::buildApp(kServeDesigns[r.op.design], kServeScale);
            g = std::move(d.graph());
        }
        runPasses(*g, nullptr);
        dse::ExploreConfig cfg;
        cfg.maxPoints = kServePoints;
        cfg.seed = r.op.jobSeed;
        dse::Explorer ex(*es.area, es.runtime);
        const auto t0 = Clock::now();
        const auto res = ex.explore(*g, cfg);
        Entry e;
        e.exploreS = since(t0);
        e.hash = fnv1a(serve::resultToJson(*g, res).render());
        return memo.emplace(key, e).first->second;
    }
};

/**
 * Open loop: ops arrive as a seeded Poisson process at `rate` per
 * second whatever the server does; kClients connections carry them.
 * An op that finds every connection busy waits, and its latency
 * counts from its due time.
 */
std::vector<OpRecord>
openSchedule(uint64_t seed, double rate, size_t n)
{
    std::vector<OpRecord> recs(n);
    std::mt19937_64 rng(mix(seed, 7));
    std::exponential_distribution<double> gap(rate);
    double t = 0;
    for (size_t i = 0; i < n; ++i) {
        if (i % kSegment == 0)
            t = 0;
        t += gap(rng);
        recs[i].op = opAt(seed, 1, i);
        recs[i].stream = 1;
        recs[i].index = i;
        recs[i].due = t;
        recs[i].traced = i % 2 == 1;
    }
    return recs;
}

/** Play recs[begin, end) — one segment, due times relative to its
 *  start — against a server. */
void
openLoop(Service& svc, const IrBank& bank, std::vector<OpRecord>& recs,
         size_t begin, size_t end)
{
    std::atomic<size_t> next{begin};
    const size_t n = end;
    const auto epoch = Clock::now() + std::chrono::milliseconds(20);
    std::vector<std::thread> workers;
    for (auto& conn : svc.conns)
        workers.emplace_back([&, c = conn.get()] {
            while (true) {
                const size_t i = next.fetch_add(1);
                if (i >= n)
                    break;
                std::this_thread::sleep_until(
                    epoch + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(recs[i].due)));
                execute(*c, bank, epoch, recs[i]);
            }
        });
    for (auto& w : workers)
        w.join();
}

/** The ops of one closed-loop round or sequential segment. */
std::vector<OpRecord>
streamOps(uint64_t seed, uint64_t stream, size_t n)
{
    std::vector<OpRecord> recs(n);
    for (size_t i = 0; i < n; ++i) {
        recs[i].op = opAt(seed, stream, i);
        recs[i].stream = stream;
        recs[i].index = i;
    }
    return recs;
}

/** Closed loop: every client sends its next op as soon as the last
 *  one completes. Returns completed ops per CPU second of the whole
 *  process (clients and server). */
double
closedLoop(Service& svc, const IrBank& bank, std::vector<OpRecord>& recs)
{
    const size_t clients = svc.conns.size();
    const auto epoch = Clock::now();
    const Watch w;
    std::vector<std::thread> workers;
    for (size_t k = 0; k < clients; ++k)
        workers.emplace_back([&, k] {
            for (size_t i = k; i < recs.size(); i += clients)
                execute(*svc.conns[k], bank, epoch, recs[i]);
        });
    for (auto& t : workers)
        t.join();
    return double(recs.size()) / w.cpu();
}

/** One client, one op in flight: each submission's time on the
 *  segment's reference clock (sampled between ops), client and server
 *  threads together. */
void
sequentialLoop(Service& svc, const IrBank& bank, std::vector<OpRecord>& recs,
               std::vector<double>& submitMs)
{
    RefClock clock;
    std::vector<double> cpu;
    const auto epoch = Clock::now();
    for (size_t i = 0; i < recs.size(); ++i) {
        if (i % 16 == 0)
            clock.sample();
        OpRecord& r = recs[i];
        const Watch w;
        execute(*svc.conns[0], bank, epoch, r);
        if (r.ok && (r.op.kind == Op::Named || r.op.kind == Op::Ir))
            cpu.push_back(w.cpu());
    }
    clock.sample(4);
    for (double c : cpu)
        submitMs.push_back(clock.ms(c));
}

/** Count each op; a submission must match its offline result. */
void
checkOps(const std::vector<OpRecord>& recs, Offline& off, Outcome& o)
{
    for (const OpRecord& r : recs) {
        const bool submit = r.op.kind == Op::Named || r.op.kind == Op::Ir;
        bool ok = r.ok;
        std::string why = r.error;
        if (ok && submit && off.of(r).hash != r.resultHash) {
            ok = false;
            why = "streamed front differs from offline explore";
        }
        o.check(ok, "serve op " + std::to_string(r.stream) + "/" +
                        std::to_string(r.index) + ": " + why);
    }
}

void
runServe(const Options& opt, Outcome& o)
{
    const int reps = opt.tiny ? 2 : 5;
    // Fixed offered load for the traced open loop, well below the
    // closed-loop saturation rate of this design mix.
    const double rate = opt.tiny ? 100 : 300;
    const size_t openOps = std::max<size_t>(16, size_t(rate * opt.seconds));
    const size_t perClient = opt.tiny ? 4 : 100;
    const size_t perSegment = opt.tiny ? 16 : kSegment;

    // Set-up as a user pays it: calibrate, start the server, connect
    // and handshake.
    Estimators es;
    std::vector<double> calib;
    const auto setup =
        setUp(reps, es, calib, o, [&](const est::AreaEstimator& a) {
            serve::Server server(a, es.runtime, serverConfig());
            bool up = server.start().ok();
            {
                serve::Client c;
                up = up && c.connect(std::to_string(server.port())).ok() &&
                     c.hello().ok();
            }
            server.requestStop();
            server.wait();
            return up;
        });

    const IrBank bank;
    Offline off{es, bank, {}};

    if (!opt.trace) {
        // Half the time one client sends one op at a time, each timed
        // on its segment's reference clock (its CPU cost, without the
        // host's wake-up delays); the other half is a closed loop of
        // kClients, timed per round. A fresh server per segment or
        // round.
        std::vector<double> submitMs, rates;
        auto t0 = Clock::now();
        for (uint64_t seg = 0;; ++seg) {
            Service svc;
            o.check(svc.open(es, 1), "server start/connect failed");
            if (svc.conns.size() != 1)
                break;
            svc.warm(bank, o);
            auto recs = streamOps(opt.seed, 1000 + seg, perSegment);
            sequentialLoop(svc, bank, recs, submitMs);
            checkOps(recs, off, o);
            if (since(t0) >= opt.seconds / 2)
                break;
        }
        t0 = Clock::now();
        for (uint64_t round = 0;; ++round) {
            Service svc;
            o.check(svc.open(es, kClients), "server start/connect failed");
            if (svc.conns.size() != size_t(kClients))
                break;
            svc.warm(bank, o);
            auto recs = streamOps(opt.seed, 2 + round, perClient * kClients);
            // The round's reference clock: samples just before and
            // after it (during it every thread is busy).
            RefClock clock;
            clock.sample(8);
            const double perCpuS = closedLoop(svc, bank, recs);
            clock.sample(8);
            rates.push_back(perCpuS * clock.kernelSeconds() * 1e3);
            checkOps(recs, off, o);
            if (since(t0) >= opt.seconds / 2)
                break;
        }
        putTimings(o, setup, rates, submitMs);
        o.put("peak_rss_mb", peakRssMb(), "MB");
        // Table III errors on served fronts: an offline explore equals
        // what the server streams (checked above for every request).
        reportAccuracy(kServeDesigns, kServeScale, kServePoints,
                       dse::Explorer(*es.area, es.runtime), o);
        return;
    }

    // Traced: an open loop for wall-clock latency under a fixed
    // offered load, one fresh server per segment; alternate ops are
    // timed phase by phase.
    std::vector<OpRecord> open = openSchedule(opt.seed, rate, openOps);
    RefClock host;
    serve::PlanCache::Stats cache{};
    serve::ServerCounters counters{};
    for (size_t b = 0; b < open.size(); b += kSegment) {
        host.sample(8);
        Service svc;
        o.check(svc.open(es, kClients), "server start/connect failed");
        if (svc.conns.size() != size_t(kClients))
            break;
        svc.warm(bank, o);
        openLoop(svc, bank, open, b, std::min(open.size(), b + kSegment));
        const auto cs = svc.server->cacheStats();
        const auto ct = svc.server->counters();
        cache.hits += cs.hits;
        cache.misses += cs.misses;
        counters.rejected += ct.rejected;
        counters.malformed += ct.malformed;
    }
    checkOps(open, off, o);

    std::vector<double> latTraced, latPlain, late;
    for (const OpRecord& r : open) {
        if (!r.ok || (r.op.kind != Op::Named && r.op.kind != Op::Ir))
            continue;
        const double ms = (r.done - r.due) * 1e3;
        (r.traced ? latTraced : latPlain).push_back(ms);
        late.push_back((r.sent - r.due) * 1e3);
    }

    // Per-phase client stamps plus a replay of the server's
    // per-request layer calls on the same inputs, timed from outside.
    std::vector<double> ackMs, waitMs, streamMs, enc, dec, bytes;
    for (const OpRecord& r : open) {
        if (!r.ok || !r.traced)
            continue;
        enc.push_back(r.encode * 1e6);
        dec.push_back(r.decode * 1e6);
        if (r.op.kind != Op::Named && r.op.kind != Op::Ir)
            continue;
        ackMs.push_back((r.ack - r.sent) * 1e3);
        waitMs.push_back((r.first - r.ack) * 1e3);
        streamMs.push_back((r.done - r.first) * 1e3);
        bytes.push_back(double(r.resultBytes));
    }
    Ledger rled;
    std::vector<std::map<std::string, double>> perDesign(kServeDesigns.size());
    for (size_t d = 0; d < kServeDesigns.size(); ++d) {
        for (int k = 0; k < 3; ++k) {
            Design des = timed(&rled, "apps.build_us", [&] {
                return apps::buildApp(kServeDesigns[d], kServeScale);
            });
            runPasses(des.graph(), &rled);
            timed(&rled, "core.emit_ir_us", [&] { return emitIR(des.graph()); });
            ParseResult pr = timed(&rled, "core.parse_ir_us",
                                   [&] { return parseIR(bank.variant(d, "x")); });
            o.check(pr.ok(), "replay parse of " + kServeDesigns[d] + " failed");
            auto plan = timed(&rled, "analysis.plan_compile_us", [&] {
                return dse::Evaluator::tryCompile(des.graph());
            });
            o.check(plan != nullptr, "replay plan compile failed");
        }
        // This design's median over its three replays.
        for (const char* layer :
             {"apps.build_us", "core.passes_us", "core.emit_ir_us",
              "core.parse_ir_us", "analysis.plan_compile_us"}) {
            const auto& all = rled.samples(layer);
            perDesign[d][layer] =
                median(std::vector<double>(all.end() - 3, all.end()));
        }
    }
    // Covered time per traced submission: client encode/decode plus
    // the replayed server-side layers and the offline explore time.
    double covered = 0, latency = 0;
    for (const OpRecord& r : open) {
        if (!r.ok || !r.traced ||
            (r.op.kind != Op::Named && r.op.kind != Op::Ir))
            continue;
        const auto& m = perDesign[r.op.design];
        covered += r.encode + r.decode + m.at("core.passes_us") +
                   m.at("core.emit_ir_us") +
                   (r.op.kind == Op::Ir ? m.at("core.parse_ir_us")
                                        : m.at("apps.build_us")) +
                   (r.cached ? 0 : m.at("analysis.plan_compile_us")) +
                   off.of(r).exploreS;
        latency += r.done - r.sent;
    }
    const uint64_t lookups = cache.hits + cache.misses;
    o.put("estimate.calibrate_s", median(calib), "s");
    o.put("apps.build_us", medianUs(rled, "apps.build_us"), "us");
    o.put("core.passes_us", medianUs(rled, "core.passes_us"), "us");
    o.put("core.emit_ir_us", medianUs(rled, "core.emit_ir_us"), "us");
    o.put("core.parse_ir_us", medianUs(rled, "core.parse_ir_us"), "us");
    o.put("analysis.plan_compile_us",
          medianUs(rled, "analysis.plan_compile_us"), "us");
    o.put("serve.submit_ack_ms", median(ackMs), "ms");
    o.put("serve.queue_wait_ms", median(waitMs), "ms");
    o.put("serve.stream_ms", median(streamMs), "ms");
    o.put("serve.json_encode_us", median(enc), "us");
    o.put("serve.json_decode_us", median(dec), "us");
    o.put("serve.result_bytes", median(bytes), "bytes");
    o.put("wall_p50_ms", median(latPlain), "ms");
    o.put("host.ref_cpu_us", host.kernelSeconds() * 1e6, "us");
    o.put("serve.p99_ms", quantile(latPlain, 0.99), "ms");
    o.put("serve.gen_late_p99_ms", quantile(late, 0.99), "ms");
    o.put("serve.plan_cache.hit_rate",
          lookups ? double(cache.hits) / double(lookups) : 0, "frac");
    o.put("serve.plan_cache.misses", double(cache.misses), "count");
    o.put("serve.rejected", double(counters.rejected), "count");
    o.put("serve.malformed", double(counters.malformed), "count");
    o.put("unattributed_frac", latency > 0 ? 1 - covered / latency : 0,
          "frac");
    o.put("trace.overhead_ms", median(latTraced) - median(latPlain), "ms");
}

/** Per-layer names every traced run reports (0 when the workload
 *  makes no call into that layer). */
const char* const kLayerMetrics[][2] = {
    {"estimate.calibrate_s", "s"},
    {"apps.build_us", "us"},
    {"core.passes_us", "us"},
    {"core.emit_ir_us", "us"},
    {"core.parse_ir_us", "us"},
    {"analysis.plan_compile_us", "us"},
    {"dse.sample_us_per_pt", "us"},
    {"dse.eval_us_per_pt", "us"},
    {"dse.pareto_us", "us"},
    {"dse.explore_unattributed_frac", "frac"},
    {"cpu.pool_speedup_4t", "x"},
    {"sweep.pts_evaluated", "count"},
    {"sweep.pts_valid", "count"},
    {"fpga.synthesize_us", "us"},
    {"sim.timing_us", "us"},
    {"codegen.maxj_us", "us"},
    {"sim.cycles_total", "count"},
    {"wall_p50_ms", "ms"},
    {"host.ref_cpu_us", "us"},
    {"dse.strategy.propose_s", "s"},
    {"dse.strategy.train_s", "s"},
    {"dse.strategy.rank_s", "s"},
    {"dse.guided.eval_s", "s"},
    {"dse.guided.rounds", "count"},
    {"dse.guided.evals_to_front", "count"},
    {"dse.guided.adrs_ratio", "ratio"},
    {"serve.submit_ack_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.stream_ms", "ms"},
    {"serve.json_decode_us", "us"},
    {"serve.json_encode_us", "us"},
    {"serve.result_bytes", "bytes"},
    {"serve.p99_ms", "ms"},
    {"serve.gen_late_p99_ms", "ms"},
    {"serve.plan_cache.hit_rate", "frac"},
    {"serve.plan_cache.misses", "count"},
    {"serve.rejected", "count"},
    {"serve.malformed", "count"},
    {"unattributed_frac", "frac"},
    {"trace.overhead_ms", "ms"},
};

/** Fill in the per-layer metrics this workload does not exercise. */
void
completeLayers(Outcome& o)
{
    for (const auto& m : kLayerMetrics)
        if (!o.metrics.find(m[0]))
            o.put(m[0], 0, m[1]);
}

bool
parseArgs(int argc, char** argv, Options& opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--tiny") {
            opt.tiny = true;
        } else if (a == "--workload" && hasValue) {
            opt.workload = argv[++i];
        } else if (a == "--seed" && hasValue) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && hasValue) {
            opt.seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && hasValue) {
            opt.trace = std::string(argv[++i]) == "1";
        } else {
            return false;
        }
    }
    return (opt.workload == "sweep" || opt.workload == "guided" ||
            opt.workload == "serve") &&
           opt.seconds > 0;
}

/** The CPU brand string from cpuid (no file read); "unknown"
 *  elsewhere. */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const size_t b = s.find_first_not_of(' ');
        const size_t e = s.find_last_not_of(' ');
        if (b != std::string::npos)
            return s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

Json
hostInfo()
{
    Json h = Json::object();
    h.set("nproc", std::thread::hardware_concurrency());
    h.set("cpu", cpuModel());
    return h;
}

Json
buildInfo()
{
    Json b = Json::object();
    b.set("compiler", std::string(PERFBENCH_CXX_ID) + " " +
                          PERFBENCH_CXX_VERSION);
    b.set("build_type", PERFBENCH_BUILD_TYPE);
    b.set("dhdl_native", bool(PERFBENCH_NATIVE));
    return b;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::cerr << "usage: perfbench --workload sweep|guided|serve "
                     "--seed N --seconds S --trace 0|1 [--tiny]\n";
        return 2;
    }
    Outcome o;
    referenceKernel(true); // Warm-up: the tables and the code paths.
    try {
        if (opt.workload == "sweep")
            runSweep(opt, o);
        else if (opt.workload == "guided")
            runGuided(opt, o);
        else
            runServe(opt, o);
    } catch (const std::exception& e) {
        o.check(false, std::string("aborted: ") + e.what());
    }
    if (opt.trace)
        completeLayers(o);

    Json out = Json::object();
    out.set("correct", o.failed == 0);
    out.set("attempted", o.attempted);
    out.set("failed", o.failed);
    Json why = Json::array();
    for (const auto& f : o.failures)
        why.push(f);
    out.set("failures", why);
    out.set("metrics", o.metrics);
    out.set("host", hostInfo());
    out.set("build", buildInfo());
    std::cout << out.render() << "\n";
    return 0;
}
