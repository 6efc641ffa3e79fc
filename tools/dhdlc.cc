/**
 * dhdlc — command-line driver for the DHDL framework.
 *
 * Usage:
 *   dhdlc list
 *   dhdlc explore <design> [--scale S] [--points N] [--top K]
 *                 [--threads T] [--time-budget SEC] [--seed SEED]
 *                 [--checkpoint FILE] [--resume] [--profile]
 *                 [--checkpoint-every N] [--shard I/N]
 *                 [--trace FILE] [--metrics FILE]
 *   dhdlc merge <design> --shards N --checkpoint FILE
 *                 [--scale S] [--points N] [--seed SEED] [--top K]
 *   dhdlc report <design> [--scale S] [--points N]
 *   dhdlc emit <design> [--scale S] [--points N] [--out DIR]
 *   dhdlc emit-ir <design> [--scale S]
 *   dhdlc print <design> [--scale S]
 *   dhdlc calibrate [--out DIR]
 *   dhdlc submit <design> --server HOST:PORT [--tenant T]
 *                 [--points N] [--seed SEED] [--strategy ...]
 *                 [--follow]
 *   dhdlc status --server HOST:PORT --job ID
 *   dhdlc result --server HOST:PORT --job ID [--wait]
 *   dhdlc cancel --server HOST:PORT --job ID
 *   dhdlc --version
 *
 * The serving commands talk to a running `dhdld` daemon over its
 * line-delimited JSON protocol (src/serve). `submit` sends a design
 * by registry name, or — when given a `.dhdl` path — reads the file
 * here and ships the IR text, so the daemon never touches client
 * paths. `--follow` streams incremental Pareto-front updates as
 * search rounds complete. `status`/`result`/`cancel` poll, fetch
 * (`--wait` blocks until the job finishes) and cooperatively cancel.
 * Every exchange carries the protocol version; skew is rejected with
 * a structured version-mismatch diagnostic on both sides.
 *
 * <design> is either a benchmark name from `dhdlc list` or a path to
 * a `.dhdl` IR file (anything ending in ".dhdl"); both take the
 * identical pipeline. `explore` runs design space exploration and
 * prints the Pareto frontier; `report` additionally synthesizes +
 * simulates the best point (estimate vs ground truth); `emit` writes
 * the MaxJ kernel and manager for the best point; `emit-ir` writes
 * the canonical `.dhdl` serialization to stdout (round-trippable:
 * `dhdlc emit-ir gda > gda.dhdl && dhdlc explore gda.dhdl`); `print`
 * dumps the human-readable hierarchy; `calibrate` always runs
 * characterization + ANN training, refreshes the calibration cache
 * entry (printing its key and path) and exports the calibration to
 * <DIR>/dhdl_calibration.txt (reloadable via
 * est::AreaEstimator(device, stream)). Every other command loads the
 * cached calibration, computing and storing it on a miss (cache in
 * $XDG_CACHE_HOME/dhdl or ~/.cache/dhdl; delete it to clear).
 *
 * Every load — built or parsed — runs the standard analysis pass
 * pipeline (validate, fold-constants, dead-nodes, stats); pass
 * failures are reported as structured diagnostics and abort the
 * command.
 *
 * Observability (src/obs) flags, accepted by every command:
 *   --trace FILE    write a Chrome-trace / Perfetto JSON timeline
 *                   (per-thread spans: passes, DSE stages per point,
 *                   plan compile, sim, codegen)
 *   --metrics FILE  write the metrics registry snapshot as JSON
 *   --profile       print the same snapshot as text to stderr
 * Any of the three enables recording; so does DHDL_OBS=ON in the
 * environment. All three render one registry snapshot — there is no
 * separate timing plumbing.
 *
 * Sharded exploration (crash-safe distribution, DESIGN.md §10):
 *   --shard I/N     evaluate only shard I of an N-way deterministic
 *                   partition; the checkpoint goes to
 *                   <FILE>.shard-I-of-N
 *   merge           reassemble shard checkpoints without running
 *                   anything; shards that are missing or belong to a
 *                   different run degrade to an explicit partial
 *                   merge
 * Run each shard as its own process (on this machine or another),
 * each with `--checkpoint FILE --resume`; re-running a crashed shard
 * the same way resumes it from its checkpoint. Then `merge --shards
 * N`. To use one machine's cores, use `--threads T` instead.
 *
 * Fault injection (chaos testing): DHDL_FAULT=point=value[,...] in
 * the environment arms crash/hang/torn-write/corrupt-record seams
 * (src/core/faultinject.hh); dhdlc is the only place that reads it.
 */

#include <cstdio>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "codegen/maxj.hh"
#include "core/faultinject.hh"
#include "core/passes.hh"
#include "core/printer.hh"
#include "core/transform.hh"
#include "dse/explorer.hh"
#include "dse/shard.hh"
#include "estimate/power_model.hh"
#include "fpga/toolchain.hh"
#include "serve/client.hh"
#include "sim/report.hh"
#include "sim/timing.hh"

using namespace dhdl;

namespace {

struct Args {
    std::string command;
    std::string benchmark;
    double scale = 1.0;
    int points = 2000;
    int top = 10;
    std::string out = ".";
    int threads = 1;
    double timeBudget = 0;
    std::string checkpoint;
    bool resume = false;
    bool profile = false;
    std::string trace;
    std::string metrics;
    long long seed = -1;   //!< -1 keeps the ExploreConfig default.
    long long checkpointEvery = 0; //!< 0 keeps the default cadence.
    std::string shard;     //!< "I/N": run one shard of a partition.
    int shards = 0;        //!< merge: shard count of the partition.
    std::string strategy;  //!< "random" (default) or "surrogate".
    int initialPoints = 0; //!< >0 overrides the surrogate seed round.
    int maxRounds = 0;     //!< >0 caps surrogate rounds.
    std::string saveModel; //!< Persist the trained surrogate bundle.
    std::string loadModel; //!< Warm-start from a saved bundle.
    std::string server;    //!< dhdld address ("host:port" or "port").
    std::string tenant;    //!< Tenant id for serving admission.
    long long job = -1;    //!< Job id for status/result/cancel.
    bool follow = false;   //!< Stream round events on submit.
    bool wait = false;     //!< Block in `result` until finished.
    bool version = false;  //!< Print version + protocol and exit.
};

/**
 * The one flag table: each entry carries the flag name, its operand
 * placeholder (nullptr for booleans) and the setter. parse() and
 * usage() both walk it, so adding a flag is one line and the two can
 * never disagree — the historical per-flag if/else blocks duplicated
 * every name three times.
 */
struct FlagDef {
    const char* name;
    const char* operand; //!< e.g. "N"; nullptr = boolean flag.
    std::function<void(Args&, const char*)> set;
};

const std::vector<FlagDef>&
flagTable()
{
    auto num = [](int Args::* f) {
        return [f](Args& a, const char* v) { a.*f = std::atoi(v); };
    };
    auto lnum = [](long long Args::* f) {
        return [f](Args& a, const char* v) { a.*f = std::atoll(v); };
    };
    auto fnum = [](double Args::* f) {
        return [f](Args& a, const char* v) { a.*f = std::atof(v); };
    };
    auto str = [](std::string Args::* f) {
        return [f](Args& a, const char* v) { a.*f = v; };
    };
    auto flag = [](bool Args::* f) {
        return [f](Args& a, const char*) { a.*f = true; };
    };
    static const std::vector<FlagDef> table = {
        {"--scale", "S", fnum(&Args::scale)},
        {"--points", "N", num(&Args::points)},
        {"--top", "K", num(&Args::top)},
        {"--out", "DIR", str(&Args::out)},
        {"--threads", "T", num(&Args::threads)},
        {"--time-budget", "SEC", fnum(&Args::timeBudget)},
        {"--seed", "SEED", lnum(&Args::seed)},
        {"--checkpoint", "FILE", str(&Args::checkpoint)},
        {"--checkpoint-every", "N", lnum(&Args::checkpointEvery)},
        {"--resume", nullptr, flag(&Args::resume)},
        {"--shard", "I/N", str(&Args::shard)},
        {"--shards", "N", num(&Args::shards)},
        {"--strategy", "random|surrogate", str(&Args::strategy)},
        {"--initial-points", "N", num(&Args::initialPoints)},
        {"--max-rounds", "R", num(&Args::maxRounds)},
        {"--save-model", "FILE", str(&Args::saveModel)},
        {"--load-model", "FILE", str(&Args::loadModel)},
        {"--server", "HOST:PORT", str(&Args::server)},
        {"--tenant", "NAME", str(&Args::tenant)},
        {"--job", "ID", lnum(&Args::job)},
        {"--follow", nullptr, flag(&Args::follow)},
        {"--wait", nullptr, flag(&Args::wait)},
        {"--profile", nullptr, flag(&Args::profile)},
        {"--trace", "FILE", str(&Args::trace)},
        {"--metrics", "FILE", str(&Args::metrics)},
        {"--version", nullptr, flag(&Args::version)},
    };
    return table;
}

int
usage()
{
    std::cerr << "usage: dhdlc "
                 "<list|print|explore|merge|report|emit|emit-ir|"
                 "calibrate|submit|status|result|cancel> "
                 "[benchmark|file.dhdl]";
    for (const FlagDef& f : flagTable()) {
        std::cerr << " [" << f.name;
        if (f.operand)
            std::cerr << " " << f.operand;
        std::cerr << "]";
    }
    std::cerr << "\n       dhdlc --version" << std::endl;
    return 2;
}

bool
parse(int argc, char** argv, Args& args)
{
    if (argc < 2)
        return false;
    args.command = argv[1];
    int i = 2;
    if (args.command == "--version") {
        args.version = true;
        i = 1; // No command; still parse any remaining flags.
    }
    if (i < argc && argv[i][0] != '-')
        args.benchmark = argv[i++];
    for (; i < argc; ++i) {
        const FlagDef* def = nullptr;
        for (const FlagDef& f : flagTable())
            if (f.name == std::string(argv[i]))
                def = &f;
        if (!def)
            return false;
        const char* v = nullptr;
        if (def->operand) {
            if (i + 1 >= argc)
                return false;
            v = argv[++i];
        }
        def->set(args, v);
    }
    return true;
}

/**
 * Everything dhdlc knows about the design it operates on: the graph
 * (built from a registry name or parsed from a `.dhdl` file) plus the
 * artifacts of the standard pass pipeline, which runs on every load
 * so files and built designs behave identically.
 */
struct Loaded {
    Graph graph;
    PassArtifacts art;
};

Loaded
load(const Args& args)
{
    Graph g = apps::loadGraph(args.benchmark, args.scale);
    DiagSink sink;
    PassContext ctx(sink);
    PassManager pm = standardPasses();
    Status st = pm.run(g, ctx);
    if (!st.ok()) {
        for (const auto& d : sink.snapshot())
            std::cerr << "dhdlc: " << d.str() << "\n";
        for (const auto& e : ctx.art.validationErrors)
            std::cerr << "dhdlc:   " << e << "\n";
        fatal("design '" + args.benchmark + "' failed the " +
                  "analysis pipeline",
              st.diag().code);
    }
    return Loaded{std::move(g), std::move(ctx.art)};
}

/** Output stem: the graph name for files, the CLI name otherwise. */
std::string
designStem(const Args& args, const Graph& g)
{
    if (args.benchmark.size() > 5 &&
        args.benchmark.compare(args.benchmark.size() - 5, 5,
                               ".dhdl") == 0)
        return g.name();
    return args.benchmark;
}

void
printBinding(const Graph& g, const ParamBinding& b)
{
    for (size_t i = 0; i < g.params().size(); ++i)
        std::cout << (i ? " " : "") << g.params()[ParamId(i)].name
                  << "=" << b.values[i];
}

/**
 * The one ExploreConfig builder every command shares: shard runs
 * and `merge` must derive the identical global sample set, so they
 * both come through here.
 */
dse::ExploreConfig
makeConfig(const Args& args)
{
    dse::ExploreConfig cfg;
    cfg.maxPoints = args.points;
    cfg.threads = args.threads;
    cfg.timeBudgetSeconds = args.timeBudget;
    cfg.checkpointPath = args.checkpoint;
    cfg.resume = args.resume;
    if (args.seed >= 0)
        cfg.seed = uint64_t(args.seed);
    if (args.checkpointEvery > 0)
        cfg.checkpointEvery = args.checkpointEvery;
    if (!args.strategy.empty()) {
        if (args.strategy == "random")
            cfg.strategy = dse::StrategyKind::Random;
        else if (args.strategy == "surrogate")
            cfg.strategy = dse::StrategyKind::Surrogate;
        else
            fatal("unknown --strategy '" + args.strategy +
                      "' (random|surrogate)",
                  DiagCode::UserError);
    }
    if (args.initialPoints > 0)
        cfg.surrogate.initialPoints = args.initialPoints;
    if (args.maxRounds > 0)
        cfg.surrogate.maxRounds = args.maxRounds;
    cfg.surrogate.saveModelPath = args.saveModel;
    cfg.surrogate.loadModelPath = args.loadModel;
    if (!args.shard.empty()) {
        dse::ShardSpec spec;
        Status st = dse::parseShard(args.shard, spec);
        if (!st.ok())
            fatal(st.diag().message, st.diag().code);
        cfg.shardIndex = spec.index;
        cfg.shardCount = spec.count;
        // Each shard checkpoints to its own file next to the base
        // path, so concurrent shards never contend on one file and
        // merge knows where to look.
        if (!args.checkpoint.empty())
            cfg.checkpointPath = dse::shardCheckpointPath(
                args.checkpoint, spec.index, spec.count);
    }
    return cfg;
}

/** The process's estimator, once calibrated (see estimator()). */
const est::AreaEstimator* gEstimator = nullptr;

/**
 * The calibrated estimator. The first call reports a bad calibration
 * cache entry (recomputed and overwritten) on stderr; `--profile`
 * later prints where the calibration came from.
 */
const est::AreaEstimator&
estimator()
{
    if (!gEstimator) {
        gEstimator = &est::calibratedEstimator();
        if (const auto& w = gEstimator->calibration().warning)
            std::cerr << "dhdlc: " << w->str() << "\n";
    }
    return *gEstimator;
}

dse::ExploreResult
explore(const Graph& g, const Args& args)
{
    static est::RuntimeEstimator rt;
    dse::Explorer ex(estimator(), rt);
    return ex.explore(g, makeConfig(args));
}

/** One-line sweep health summary: evaluated/failed/valid/Pareto. */
void
printStats(const dse::ExploreResult& res)
{
    const auto& s = res.stats;
    std::cout << s.total << " points sampled";
    if (s.requested && s.total < s.requested)
        std::cout << " (of " << s.requested
                  << " requested; sampling shortfall)";
    std::cout << ", " << s.evaluated << " evaluated";
    if (s.resumed)
        std::cout << " (" << s.resumed << " from checkpoint)";
    if (s.skipped) {
        std::cout << ", " << s.skipped << " un-evaluated";
        if (s.timeBudgetHit || s.evalBudgetHit)
            std::cout << " (" << (s.timeBudgetHit ? "time" : "eval")
                      << " budget)";
    }
    std::cout << ", " << s.failed << " failed, " << s.valid
              << " valid, " << res.pareto.size()
              << " Pareto-optimal\n";
    if (s.failed) {
        std::cout << "top failure reasons:\n";
        for (const auto& [label, count] : res.failureSummary())
            std::cout << "  " << count << "x " << label << "\n";
    }
    for (const auto& d : res.diags) {
        if (d.severity == DiagSeverity::Warning)
            std::cout << "note: " << d.str() << "\n";
    }
}

int
cmdList()
{
    std::cout << "benchmarks (Table II):\n";
    for (const auto& app : apps::allApps())
        std::cout << "  " << app.name << "\n";
    std::cout << "  conv2d\n";
    return 0;
}

int
cmdPrint(const Args& args)
{
    Loaded l = load(args);
    std::cout << printGraph(l.graph);
    const auto& stats = l.art.stats;
    std::cout << "\n# controllers=" << stats.controllers
              << " pipes=" << stats.pipes
              << " metapipes=" << stats.metaPipes
              << " memories=" << stats.memories
              << " transfers=" << stats.transfers
              << " primitives=" << stats.primitives
              << " depth=" << stats.maxDepth
              << " params=" << stats.params << "\n";
    return 0;
}

int
cmdEmitIR(const Args& args)
{
    Loaded l = load(args);
    std::cout << emitIR(l.graph);
    return 0;
}

void
printPareto(const Graph& g, const dse::ExploreResult& res, int top)
{
    const auto& dev = estimator().device();
    int shown = 0;
    for (size_t idx : res.pareto) {
        if (shown++ >= top)
            break;
        const auto& p = res.points[idx];
        std::cout << "cycles=" << int64_t(p.cycles)
                  << " alm=" << int64_t(100.0 * p.area.alms /
                                        double(dev.alms))
                  << "% bram=" << int64_t(100.0 * p.area.brams /
                                          double(dev.m20ks))
                  << "%  [";
        printBinding(g, p.binding);
        std::cout << "]\n";
    }
}

int
cmdExplore(const Args& args)
{
    if (args.shards > 0) {
        std::cerr << "dhdlc: explore has no --shards N; run each shard "
                     "as its own process with --shard I/N --checkpoint "
                     "FILE --resume, then `dhdlc merge --shards N`, or "
                     "use --threads N on one machine\n";
        return 2;
    }
    Loaded l = load(args);
    auto res = explore(l.graph, args);
    printStats(res);
    printPareto(l.graph, res, args.top);
    return 0;
}

/**
 * Merge shard checkpoints into the global result without evaluating
 * anything — the off-machine half of a distributed sweep.
 */
int
cmdMerge(const Args& args)
{
    require(!args.checkpoint.empty(), "merge needs --checkpoint");
    require(args.shards >= 1, "merge needs --shards N");
    Loaded l = load(args);
    auto merged = dse::mergeShards(l.graph, makeConfig(args),
                                   args.shards, args.checkpoint);
    if (!merged.complete()) {
        std::cout << "partial merge; missing shard(s):";
        for (int s : merged.missingShards)
            std::cout << " " << s;
        std::cout << "\n";
    }
    printStats(merged.result);
    printPareto(l.graph, merged.result, args.top);
    return merged.complete() ? 0 : 1;
}

int
cmdReport(const Args& args)
{
    Loaded l = load(args);
    auto res = explore(l.graph, args);
    auto best = res.bestIndex();
    if (!best) {
        printStats(res);
        std::cerr << "no valid design found\n";
        return 1;
    }
    const auto& p = res.points[*best];
    Inst inst(l.graph, p.binding);
    auto truth = est::defaultToolchain().synthesize(inst);
    auto timed = sim::TimingSim(inst).run();

    std::cout << "best design: [";
    printBinding(l.graph, p.binding);
    std::cout << "]\n";
    std::cout << "             estimate      synthesized/simulated\n";
    std::cout << "ALMs     " << int64_t(p.area.alms) << "  vs  "
              << int64_t(truth.alms) << "\n";
    std::cout << "DSPs     " << int64_t(p.area.dsps) << "  vs  "
              << int64_t(truth.dsps) << "\n";
    std::cout << "BRAMs    " << int64_t(p.area.brams) << "  vs  "
              << int64_t(truth.brams) << "\n";
    std::cout << "cycles   " << int64_t(p.cycles) << "  vs  "
              << int64_t(timed.cycles) << "\n";
    std::cout << "power    "
              << int64_t(
                     est::calibratedPowerEstimator().estimateMw(inst))
              << "  vs  " << int64_t(truth.powerMw) << " mW\n";
    std::cout << "runtime  " << timed.seconds * 1e3
              << " ms at 150 MHz\n\n";
    std::cout << sim::timingReport(inst);
    return 0;
}

int
cmdEmit(const Args& args)
{
    Loaded l = load(args);
    auto res = explore(l.graph, args);
    auto best = res.bestIndex();
    if (!best) {
        printStats(res);
        std::cerr << "no valid design found\n";
        return 1;
    }
    Inst inst(l.graph, res.points[*best].binding);
    std::string stem = designStem(args, l.graph);
    std::string kpath = args.out + "/" + stem + ".maxj";
    std::string mpath = args.out + "/" + stem + "Manager.maxj";
    std::ofstream(kpath) << codegen::emitMaxj(inst);
    std::ofstream(mpath) << codegen::emitMaxjManager(inst);
    std::cout << "wrote " << kpath << " and " << mpath << "\n";
    return 0;
}

/** Exit path for client-side failures (transport, handshake). */
int
clientFail(const Status& st)
{
    std::cerr << "dhdlc: " << st.diag().str() << "\n";
    return 1;
}

/** Connect + handshake; shared by every serving command. */
int
clientConnect(const Args& args, serve::Client& c)
{
    require(!args.server.empty(),
            "serving commands need --server HOST:PORT");
    if (Status st = c.connect(args.server); !st.ok())
        return clientFail(st);
    if (Status st = c.hello(); !st.ok())
        return clientFail(st);
    return 0;
}

/** A one-line human summary of a server-side result object. */
void
printRemoteResult(const serve::Json& result)
{
    const serve::Json* stats = result.find("stats");
    const serve::Json* front = result.find("front");
    if (!stats)
        return;
    auto n = [&](const char* k) {
        const serve::Json* v = stats->find(k);
        return v ? v->asInt() : 0;
    };
    std::cout << n("sampled") << " points sampled";
    const serve::Json* shortfall = stats->find("shortfall");
    if (shortfall && shortfall->asBool())
        std::cout << " (of " << n("requested")
                  << " requested; sampling shortfall)";
    std::cout << ", " << n("evaluated") << " evaluated, "
              << n("failed") << " failed, " << n("valid")
              << " valid, " << (front ? front->items().size() : 0)
              << " Pareto-optimal\n";
    if (const serve::Json* warns = result.find("warnings"))
        for (const serve::Json& w : warns->items())
            if (const serve::Json* m = w.find("message"))
                std::cout << "note: " << m->asString() << "\n";
}

int
cmdSubmit(const Args& args)
{
    require(!args.benchmark.empty(),
            "submit needs a benchmark name or .dhdl file");
    serve::Client c;
    if (int rc = clientConnect(args, c))
        return rc;

    serve::Json req = serve::Json::object();
    req.set("op", "submit");
    req.set("tenant", args.tenant.empty() ? "dhdlc" : args.tenant);
    if (args.benchmark.size() > 5 &&
        args.benchmark.compare(args.benchmark.size() - 5, 5,
                               ".dhdl") == 0) {
        // Ship the IR text: the daemon never reads client paths.
        std::ifstream in(args.benchmark);
        require(bool(in), "cannot read " + args.benchmark);
        std::ostringstream text;
        text << in.rdbuf();
        req.set("ir", text.str());
    } else {
        req.set("design", args.benchmark);
        req.set("scale", args.scale);
    }
    serve::Json cfg = serve::Json::object();
    cfg.set("points", args.points);
    if (args.seed >= 0)
        cfg.set("seed", args.seed);
    if (args.threads > 1)
        cfg.set("threads", args.threads);
    if (args.timeBudget > 0)
        cfg.set("time_budget", args.timeBudget);
    if (!args.strategy.empty())
        cfg.set("strategy", args.strategy);
    if (args.initialPoints > 0)
        cfg.set("initial_points", args.initialPoints);
    if (args.maxRounds > 0)
        cfg.set("max_rounds", args.maxRounds);
    req.set("config", std::move(cfg));
    if (args.follow)
        req.set("stream", true);

    serve::Json resp;
    if (Status st = c.request(req, resp); !st.ok())
        return clientFail(st);
    const serve::Json* ok = resp.find("ok");
    if (!ok || !ok->asBool()) {
        std::cout << resp.render() << "\n";
        return 1;
    }
    const serve::Json* jobId = resp.find("job");
    const serve::Json* cached = resp.find("cached");
    std::cout << "job " << (jobId ? jobId->asInt() : -1)
              << " submitted"
              << (cached && cached->asBool() ? " (plan cache hit)"
                                             : "")
              << "\n";
    if (!args.follow)
        return 0;

    // Stream events until the final "done".
    while (true) {
        serve::Json ev;
        if (Status st = c.recv(ev); !st.ok())
            return clientFail(st);
        const serve::Json* kind = ev.find("event");
        if (!kind)
            continue;
        if (kind->asString() == "round") {
            auto n = [&](const char* k) {
                const serve::Json* v = ev.find(k);
                return v ? v->asInt() : 0;
            };
            std::cout << "round " << n("round") << ": "
                      << n("evaluated") << " evaluated, front size "
                      << n("front_size") << "\n";
            continue;
        }
        if (kind->asString() == "done") {
            const serve::Json* state = ev.find("state");
            std::cout << "job finished: "
                      << (state ? state->asString() : "?") << "\n";
            if (const serve::Json* result = ev.find("result"))
                printRemoteResult(*result);
            else if (const serve::Json* err = ev.find("error"))
                std::cout << "error: " << err->render() << "\n";
            return state && state->asString() == "done" ? 0 : 1;
        }
    }
}

/** status/result/cancel: one request referencing --job. */
int
cmdJobOp(const Args& args, const char* op)
{
    require(args.job >= 0,
            std::string(op) + " needs --job ID");
    serve::Client c;
    if (int rc = clientConnect(args, c))
        return rc;
    serve::Json req = serve::Json::object();
    req.set("op", op);
    req.set("job", args.job);
    if (std::string(op) == "result" && args.wait)
        req.set("wait", true);
    serve::Json resp;
    if (Status st = c.request(req, resp); !st.ok())
        return clientFail(st);
    std::cout << resp.render() << "\n";
    const serve::Json* ok = resp.find("ok");
    return ok && ok->asBool() ? 0 : 1;
}

int
runCommand(const Args& args)
{
    if (args.command == "list")
        return cmdList();
    if (args.command == "calibrate") {
        const auto e = est::AreaEstimator::compute(est::defaultToolchain());
        const std::string entry = est::storeCalibration(e);
        std::cout << "calibration key " << e.calibration().key << "\n";
        std::string path = args.out + "/dhdl_calibration.txt";
        std::ofstream out(path);
        e.save(out);
        if (!out) {
            std::cerr << "dhdlc: cannot write " << path << "\n";
            return 1;
        }
        std::cout << "wrote " << path << "\n";
        if (entry.empty()) {
            std::cerr << "dhdlc: cannot write the calibration cache"
                         " entry (no usable directory under"
                         " XDG_CACHE_HOME or HOME/.cache)\n";
            return 1;
        }
        std::cout << "cached " << entry << "\n";
        return 0;
    }
    if (args.command == "status")
        return cmdJobOp(args, "status");
    if (args.command == "result")
        return cmdJobOp(args, "result");
    if (args.command == "cancel")
        return cmdJobOp(args, "cancel");
    if (args.benchmark.empty())
        return usage();
    if (args.command == "submit")
        return cmdSubmit(args);
    if (args.command == "print")
        return cmdPrint(args);
    if (args.command == "emit-ir")
        return cmdEmitIR(args);
    if (args.command == "explore")
        return cmdExplore(args);
    if (args.command == "merge")
        return cmdMerge(args);
    if (args.command == "report")
        return cmdReport(args);
    if (args.command == "emit")
        return cmdEmit(args);
    return usage();
}

/**
 * Per-round search breakdown from the metrics snapshot: one row per
 * `dse.round.<i>.*` counter group the driver recorded. Rendered only
 * when rounds exist (any explore records round 0, so the table shows
 * for every profiled sweep; surrogate runs get one row per round).
 */
void
renderRounds(const obs::MetricsSnapshot& snap, std::ostream& os)
{
    const uint64_t rounds = snap.counter("dse.round.count");
    if (!rounds)
        return;
    os << "search rounds:\n"
       << "  round      pool  proposed evaluated     front"
          "  propose(ms)    train(ms)     rank(ms)     eval(ms)\n";
    auto ms = [](uint64_t us) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.1f", double(us) / 1e3);
        return std::string(buf);
    };
    for (uint64_t r = 0; r < rounds; ++r) {
        const std::string p = "dse.round." + std::to_string(r) + ".";
        os << "  " << std::setw(5) << r << std::setw(10)
           << snap.counter(p + "pool") << std::setw(10)
           << snap.counter(p + "proposed") << std::setw(10)
           << snap.counter(p + "evaluated") << std::setw(10)
           << snap.counter(p + "front") << std::setw(13)
           << ms(snap.counter(p + "propose.us")) << std::setw(13)
           << ms(snap.counter(p + "train.us")) << std::setw(13)
           << ms(snap.counter(p + "rank.us")) << std::setw(13)
           << ms(snap.counter(p + "eval.us")) << "\n";
    }
}

/**
 * Flush observability output. Runs even when the command failed —
 * a trace of a run that died mid-pipeline is exactly the trace worth
 * keeping.
 */
void
finishObs(const Args& args)
{
    if (args.profile) {
        auto snap = obs::snapshotMetrics();
        snap.renderText(std::cerr);
        renderRounds(snap, std::cerr);
        if (gEstimator) {
            const auto& c = gEstimator->calibration();
            std::cerr << "calibration: "
                      << est::calibrationSourceName(c.source)
                      << " key=" << c.key << " entry="
                      << (c.path.empty() ? "(none)" : c.path) << "\n";
        }
    }
    if (!args.metrics.empty()) {
        std::ofstream os(args.metrics);
        obs::snapshotMetrics().writeJson(os);
        if (os)
            std::cerr << "wrote metrics to " << args.metrics << "\n";
        else
            std::cerr << "dhdlc: cannot write metrics to "
                      << args.metrics << "\n";
    }
    if (!args.trace.empty()) {
        std::ofstream os(args.trace);
        obs::writeChromeTrace(os);
        if (os)
            std::cerr << "wrote trace to " << args.trace
                      << " (load at ui.perfetto.dev)\n";
        else
            std::cerr << "dhdlc: cannot write trace to " << args.trace
                      << "\n";
    }
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parse(argc, argv, args))
        return usage();
    if (args.version) {
        std::cout << "dhdlc " << serve::versionString()
                  << " (protocol " << serve::kProtocolVersion
                  << ")\n";
        return 0;
    }
    if (args.profile || !args.trace.empty() || !args.metrics.empty())
        obs::setEnabled(true);
    // Chaos seams (DHDL_FAULT=...) are armed only here, at process
    // scope — library consumers and unit tests stay deterministic
    // unless they call fault::configure() themselves.
    fault::configureFromEnv();
    int rc;
    try {
        rc = runCommand(args);
    } catch (const std::exception& e) {
        std::cerr << "dhdlc: " << e.what() << "\n";
        rc = 1;
    }
    finishObs(args);
    return rc;
}
