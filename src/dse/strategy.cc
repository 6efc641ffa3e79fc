#include "dse/strategy.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace dhdl::dse {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Minimum training rows before the first model fit. */
constexpr size_t kMinTrainRows = 8;
/** Below this many rows the ridge model replaces the Mlp. */
constexpr size_t kMinMlpRows = 32;
/** Holdout rows needed before family selection is trusted. */
constexpr size_t kMinValRows = 16;

/** Mlps per committee (odd, so the median is a member's output).
 *  Three measured best on the quality bench: five averages away the
 *  optimism that finds predicted-front extremes. */
constexpr size_t kCommitteeSize = 3;

} // namespace

void
RandomStrategy::propose(int round, const std::vector<size_t>& pool,
                        size_t budget, const ParetoFront&,
                        std::vector<size_t>& out, RoundStats&)
{
    // The whole pool, in sample order, in one round: exactly the
    // historical sample-everything-then-evaluate sweep. The budget
    // cap reproduces the old todo.resize(evalBudget).
    if (round > 0)
        return;
    const size_t n = std::min(budget, pool.size());
    out.insert(out.end(), pool.begin(), pool.begin() + long(n));
}

SurrogateStrategy::SurrogateStrategy(
    const SurrogateConfig& cfg, uint64_t seed, const ParamSpace& space,
    FeatureExtractor fx, const std::vector<DesignPoint>& points)
    : cfg_(cfg), space_(space), fx_(std::move(fx)), points_(points),
      seed_(seed), rng_(ml::hashMix(seed ^ 0x5a22063aull))
{
    feat_.resize(fx_.count());
    scaled_.resize(fx_.count());
    for (size_t i = 0; i < points_.size(); ++i)
        bindingToIdx_.emplace(points_[i].binding.values, i);
}

void
SurrogateStrategy::loadModel(const std::string& path, DiagSink& sink)
{
    auto warn = [&](const std::string& msg) {
        Diag d;
        d.code = DiagCode::ParseError;
        d.severity = DiagSeverity::Warning;
        d.stage = "surrogate";
        d.message = "surrogate model '" + path + "' ignored: " + msg;
        sink.report(d);
    };
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        Diag d;
        d.code = DiagCode::CheckpointIo;
        d.severity = DiagSeverity::Warning;
        d.stage = "surrogate";
        d.message =
            "surrogate model '" + path + "' not found; training fresh";
        sink.report(d);
        return;
    }
    ml::SurrogateBundle b;
    Status st = ml::tryLoadSurrogateBundle(is, b);
    if (!st.ok()) {
        warn(st.diag().message + "; training fresh");
        return;
    }
    if (b.features.columns() != fx_.count() || b.numModels() != 2) {
        warn("trained for a different design (feature arity " +
             std::to_string(b.features.columns()) + ", expected " +
             std::to_string(fx_.count()) + "); training fresh");
        return;
    }
    bundle_ = std::move(b);
    fitted_ = true;
}

void
SurrogateStrategy::observe(int,
                           const std::vector<DesignPoint>& points,
                           const std::vector<size_t>& proposed)
{
    for (size_t idx : proposed) {
        const DesignPoint& p = points[idx];
        if (!p.evaluated || p.failed)
            continue;
        const double ya = std::log2(1.0 + p.area.alms);
        const double yc = std::log2(1.0 + p.cycles);
        if (!std::isfinite(ya) || !std::isfinite(yc))
            continue;
        trainX_.push_back(fx_.features(p.binding));
        trainY_.push_back({ya, yc});
        dirty_ = true;
    }
}

void
SurrogateStrategy::train(RoundStats& rs)
{
    if (trainX_.size() < kMinTrainRows)
        return;
    const auto t0 = Clock::now();

    bundle_.features.fit(trainX_);
    bundle_.targets.fit(trainY_);

    // Scale features and targets to [0, 1] for both model families.
    std::vector<std::vector<double>> xs(trainX_.size());
    for (size_t i = 0; i < trainX_.size(); ++i)
        bundle_.features.transformInto(trainX_[i], xs[i]);
    std::array<std::vector<double>, 2> ys;
    for (size_t t = 0; t < 2; ++t) {
        ys[t].resize(trainY_.size());
        for (size_t i = 0; i < trainY_.size(); ++i)
            ys[t][i] = bundle_.targets.scaleColumn(t, trainY_[i][t]);
    }
    const bool mlp = cfg_.useMlp && trainX_.size() >= kMinMlpRows;

    auto fitLin = [&](const std::vector<std::vector<double>>& x,
                      const std::vector<double>& y) {
        ml::LinearModel m;
        m.fit(x, y, 1e-6);
        return m;
    };
    auto fitCommittee =
        [&](const std::vector<std::vector<double>>& x,
            const std::vector<double>& y, size_t t) {
            std::vector<std::vector<double>> ycol(y.size());
            for (size_t i = 0; i < y.size(); ++i)
                ycol[i] = {y[i]};
            std::vector<ml::Mlp> c;
            for (size_t m = 0; m < kCommitteeSize; ++m) {
                ml::Mlp net({int(fx_.count()), 8, 1},
                            ml::hashMix(seed_ ^
                                        (0xB0D31ull + t + 31 * m)));
                ml::RpropTrainer(net)
                    .train(x, ycol, std::max(1, cfg_.trainEpochs));
                c.push_back(std::move(net));
            }
            return c;
        };
    auto committeeMedian = [&](std::vector<ml::Mlp>& c,
                               const std::vector<double>& x) {
        double v[kCommitteeSize];
        for (size_t m = 0; m < kCommitteeSize; ++m)
            v[m] = c[m].predictScalar(x, mlpWs_);
        std::sort(v, v + kCommitteeSize);
        return v[kCommitteeSize / 2];
    };

    // Which family ranks this design best is an empirical question —
    // area and cycles are near log-linear for some designs (ridge
    // wins, the Mlp overfits) and full of min/max interactions for
    // others (the Mlp wins, ridge is systematically biased). Decide
    // per refit on a time-ordered holdout: train both families on
    // the older rows, score squared error on the newest quarter, and
    // keep the winner among {Mlp, ridge, their average}.
    blend_ = Blend::LinearOnly;
    if (mlp) {
        blend_ = Blend::MlpOnly;
        const size_t n = xs.size();
        const size_t nVal = n / 4;
        if (nVal >= kMinValRows) {
            const size_t nFit = n - nVal;
            std::vector<std::vector<double>> hx(xs.begin(),
                                                xs.begin() +
                                                    long(nFit));
            double err[3] = {0, 0, 0}; // avg, mlp, lin
            for (size_t t = 0; t < 2; ++t) {
                std::vector<double> hy(ys[t].begin(),
                                       ys[t].begin() + long(nFit));
                ml::LinearModel lm = fitLin(hx, hy);
                std::vector<ml::Mlp> c = fitCommittee(hx, hy, t);
                for (size_t i = nFit; i < n; ++i) {
                    const double pm = committeeMedian(c, xs[i]);
                    const double pl = lm.predict(xs[i]);
                    const double pa = 0.5 * (pm + pl);
                    err[0] += (pa - ys[t][i]) * (pa - ys[t][i]);
                    err[1] += (pm - ys[t][i]) * (pm - ys[t][i]);
                    err[2] += (pl - ys[t][i]) * (pl - ys[t][i]);
                }
            }
            if (err[1] < err[0] && err[1] <= err[2])
                blend_ = Blend::MlpOnly;
            else if (err[2] < err[0] && err[2] < err[1])
                blend_ = Blend::LinearOnly;
        }
    }

    // The final fit uses every row. Both families are kept either
    // way: their disagreement is the exploration signal in
    // propose() regardless of which one ranks.
    bundle_.useMlp = mlp;
    bundle_.nets.clear();
    bundle_.linears.clear();
    committee_[0].clear();
    committee_[1].clear();
    for (size_t t = 0; t < 2; ++t) {
        bundle_.linears.push_back(fitLin(xs, ys[t]));
        if (mlp) {
            committee_[t] = fitCommittee(xs, ys[t], t);
            bundle_.nets.push_back(committee_[t][0]);
        }
    }
    fitted_ = true;
    dirty_ = false;

    const double dt = secondsSince(t0);
    rs.trainSeconds += dt;
    obs::recordSpan("dse", "surrogate-train", obs::toMicros(t0),
                    uint64_t(dt * 1e6));
}

void
SurrogateStrategy::predictScaled(const ParamBinding& b, double out[2],
                                 double* disagreement)
{
    fx_.featuresInto(b, feat_.data());
    bundle_.features.transformInto(feat_, scaled_);
    const bool haveMlp = bundle_.nets.size() == 2;
    const bool haveLin = bundle_.linears.size() == 2;
    double dis = 0;
    for (size_t t = 0; t < 2; ++t) {
        double m = 0, l = 0;
        if (haveMlp) {
            if (committee_[t].size() == kCommitteeSize) {
                // Median over the committee seeds: a minority of
                // unlucky initializations cannot skew the ranking.
                double v[kCommitteeSize];
                for (size_t c = 0; c < kCommitteeSize; ++c)
                    v[c] = committee_[t][c].predictScalar(scaled_,
                                                          mlpWs_);
                std::sort(v, v + kCommitteeSize);
                m = v[kCommitteeSize / 2];
            } else {
                // Warm-started bundle without a committee.
                m = bundle_.nets[t].predictScalar(scaled_, mlpWs_);
            }
        }
        if (haveLin)
            l = bundle_.linears[t].predict(scaled_);
        if (haveMlp && haveLin) {
            dis += std::abs(m - l);
            switch (blend_) {
            case Blend::Average: out[t] = 0.5 * (m + l); break;
            case Blend::MlpOnly: out[t] = m; break;
            case Blend::LinearOnly: out[t] = l; break;
            }
        } else {
            out[t] = haveMlp ? m : l;
        }
    }
    if (disagreement)
        *disagreement = dis;
}

void
SurrogateStrategy::propose(int round, const std::vector<size_t>& pool,
                           size_t budget, const ParetoFront& front,
                           std::vector<size_t>& out, RoundStats& rs)
{
    if (cfg_.maxRounds > 0 && round >= cfg_.maxRounds)
        return;

    // Geometric round schedule: small commitments while the model is
    // weak, larger as it sharpens. The auto cold-start size scales
    // with the space dimensionality (fx_ carries nparams + 6 derived
    // slots): four seed points per parameter, clamped to [8, 16].
    int initial = cfg_.initialPoints;
    if (initial <= 0) {
        const int nparams = std::max(1, int(fx_.count()) - 6);
        initial = std::min(16, std::max(8, 4 * nparams));
    }
    const double base = double(initial);
    const double growth = std::max(1.0, cfg_.roundGrowth);
    double want = base * std::pow(growth, double(round));
    size_t roundSize = size_t(std::min<double>(want, 1e18));
    roundSize = std::min({roundSize, budget, pool.size()});
    if (roundSize == 0)
        return;

    // Deterministic sample-without-replacement from `pick`'s prefix.
    auto drawRandom = [&](std::vector<size_t>& from, size_t n) {
        n = std::min(n, from.size());
        for (size_t k = 0; k < n; ++k) {
            const size_t j =
                k + size_t(rng_.uniformInt(
                        0, int64_t(from.size() - 1 - k)));
            std::swap(from[k], from[j]);
            out.push_back(from[k]);
        }
    };

    if (dirty_)
        train(rs);

    if (!fitted_) {
        // Cold start: a uniform random seed slice trains round 1.
        std::vector<size_t> cand(pool);
        drawRandom(cand, roundSize);
        return;
    }

    const auto t0 = Clock::now();
    // Map the front into scaled target space once; candidates are
    // then scored by their predicted dominance distance — the
    // Chebyshev gap to the nearest front entry, negative when the
    // prediction lands beyond the front (would dominate part of it).
    std::vector<std::pair<double, double>> f;
    f.reserve(front.size());
    for (const ParetoFront::Entry& e : front.entries())
        f.emplace_back(bundle_.targets.scaleColumn(
                           0, std::log2(1.0 + e.x)),
                       bundle_.targets.scaleColumn(
                           1, std::log2(1.0 + e.y)));

    preds_.resize(pool.size());
    std::vector<double> gap(pool.size());
    std::vector<double> disag(pool.size());
    double p[2];
    for (size_t k = 0; k < pool.size(); ++k) {
        predictScaled(points_[pool[k]].binding, p, &disag[k]);
        preds_[k] = {p[0], p[1]};
        double s;
        if (f.empty()) {
            s = p[0] + p[1];
        } else {
            s = 1e300;
            for (const auto& [fx, fy] : f)
                s = std::min(s, std::max(p[0] - fx, p[1] - fy));
        }
        gap[k] = s;
    }

    // Nondominated sort on the predictions: candidates on the first
    // predicted Pareto layer are the ones that could extend or fill
    // gaps in the true front; deeper layers are predicted-dominated.
    // The Chebyshev gap alone cannot make that distinction — a
    // gap-filler between two found front points scores *positive*
    // (there is no found point it beats on both axes), the same sign
    // as a dominated also-ran. Layer first, gap second.
    std::vector<int> layer(pool.size(), std::numeric_limits<int>::max());
    {
        std::vector<size_t> alive(pool.size());
        for (size_t k = 0; k < pool.size(); ++k)
            alive[k] = k;
        size_t ranked = 0;
        for (int l = 0; !alive.empty() && ranked < 4 * roundSize;
             ++l) {
            auto fr = paretoFront(
                alive.size(),
                [&](size_t i) { return preds_[alive[i]][0]; },
                [&](size_t i) { return preds_[alive[i]][1]; });
            std::vector<char> onFront(alive.size(), 0);
            for (size_t i : fr) {
                layer[alive[i]] = l;
                onFront[i] = 1;
            }
            ranked += fr.size();
            size_t w = 0;
            for (size_t i = 0; i < alive.size(); ++i)
                if (!onFront[i])
                    alive[w++] = alive[i];
            alive.resize(w);
        }
    }

    // Crowding distance within each ranked layer (NSGA-II): members
    // in sparse regions of the predicted front — above all, the two
    // endpoints — order first. ADRS against a reference front is
    // dominated by its extreme points, and a gap-score order alone
    // can starve them for several rounds.
    std::vector<double> crowd(pool.size(), 0.0);
    {
        std::vector<std::vector<size_t>> byLayer;
        for (size_t k = 0; k < pool.size(); ++k) {
            const int l = layer[k];
            if (l == std::numeric_limits<int>::max())
                continue;
            if (size_t(l) >= byLayer.size())
                byLayer.resize(size_t(l) + 1);
            byLayer[size_t(l)].push_back(k);
        }
        for (auto& members : byLayer) {
            if (members.size() <= 2) {
                for (size_t k : members)
                    crowd[k] = 1e300;
                continue;
            }
            for (int obj = 0; obj < 2; ++obj) {
                std::sort(members.begin(), members.end(),
                          [&](size_t a, size_t b) {
                              if (preds_[a][obj] != preds_[b][obj])
                                  return preds_[a][obj] <
                                         preds_[b][obj];
                              return a < b;
                          });
                const double span =
                    preds_[members.back()][obj] -
                    preds_[members.front()][obj];
                crowd[members.front()] = 1e300;
                crowd[members.back()] = 1e300;
                if (span <= 0)
                    continue;
                for (size_t i = 1; i + 1 < members.size(); ++i)
                    crowd[members[i]] +=
                        (preds_[members[i + 1]][obj] -
                         preds_[members[i - 1]][obj]) /
                        span;
            }
        }
    }

    scores_.clear();
    scores_.reserve(pool.size());
    for (size_t k = 0; k < pool.size(); ++k)
        scores_.emplace_back(gap[k], k);
    std::sort(scores_.begin(), scores_.end(),
              [&](const auto& a, const auto& b) {
                  if (layer[a.second] != layer[b.second])
                      return layer[a.second] < layer[b.second];
                  if (a.first != b.first)
                      return a.first < b.first;
                  return a.second < b.second;
              });

    const size_t nRand = std::min(
        roundSize,
        size_t(std::ceil(cfg_.epsilon * double(roundSize))));
    const size_t nTop = roundSize - nRand;

    // Diverse top slice: the best-scored candidates often pile onto
    // one predicted front knee (many bindings, one predicted point),
    // while reaching the whole reference front needs picks spread
    // along it. Greedy passes with a doubling per-cell cap over a
    // grid on the predicted objectives keep score order *within* a
    // region but force coverage *across* regions.
    constexpr int kGrid = 24;
    auto cellOf = [&](const std::array<double, 2>& q) {
        auto lane = [](double v) {
            v = std::min(1.0, std::max(0.0, v));
            return std::min(kGrid - 1, int(v * kGrid));
        };
        return lane(q[0]) * kGrid + lane(q[1]);
    };
    std::vector<char> taken(pool.size(), 0);
    size_t picked = 0;
    // The predicted endpoints of the first layer go first: ADRS
    // against a reference front is dominated by its extreme points,
    // and the gap-score order below can starve them for rounds.
    for (size_t k = 0; k < pool.size() && picked < nTop; ++k) {
        if (layer[k] != 0 || crowd[k] < 1e300)
            continue;
        taken[k] = 1;
        out.push_back(pool[k]);
        if (++picked >= 4)
            break;
    }

    for (size_t cap = 1; picked < nTop; cap *= 2) {
        std::vector<uint32_t> used(size_t(kGrid) * kGrid, 0);
        for (const auto& [s, k] : scores_) {
            if (picked >= nTop)
                break;
            if (taken[k])
                continue;
            const int cell = cellOf(preds_[k]);
            if (used[size_t(cell)] >= cap)
                continue;
            ++used[size_t(cell)];
            taken[k] = 1;
            out.push_back(pool[k]);
            ++picked;
        }
    }
    // Exploration floor: the slice the ranking does not get. It
    // targets, in order: (a) parameter-space neighbors of current
    // front members — fronts are near-connected in parameter space,
    // so the tail points the model mispredicts usually sit one legal
    // step from a found one; (b) the pool's biggest model blind
    // spots, where the two families disagree most; (c) uniform
    // random picks, which need no model at all.
    size_t exLeft = nRand;

    const size_t nNbr = std::min(exLeft / 2, size_t(8));
    for (size_t nbr = 0;
         const ParetoFront::Entry& e : front.entries()) {
        if (nbr >= nNbr)
            break;
        const ParamBinding& fb = points_[e.index].binding;
        for (size_t pi = 0;
             pi < space_.legalValues().size() && nbr < nNbr; ++pi) {
            const auto& lv = space_.legalValues()[pi];
            const auto at = std::lower_bound(lv.begin(), lv.end(),
                                             fb.values[pi]);
            if (at == lv.end() || *at != fb.values[pi])
                continue;
            const long pos = at - lv.begin();
            for (long d : {-1L, 1L}) {
                const long np = pos + d;
                if (np < 0 || size_t(np) >= lv.size())
                    continue;
                std::vector<int64_t> nv = fb.values;
                nv[size_t(pi)] = lv[size_t(np)];
                const auto hit = bindingToIdx_.find(nv);
                if (hit == bindingToIdx_.end())
                    continue;
                const auto pk = std::lower_bound(
                    pool.begin(), pool.end(), hit->second);
                if (pk == pool.end() || *pk != hit->second)
                    continue;
                const size_t k = size_t(pk - pool.begin());
                if (taken[k])
                    continue;
                taken[k] = 1;
                out.push_back(pool[k]);
                --exLeft;
                if (++nbr >= nNbr)
                    break;
            }
        }
    }

    std::vector<size_t> rest;
    rest.reserve(pool.size());
    for (const auto& [s, k] : scores_)
        if (!taken[k])
            rest.push_back(k);
    const bool haveDisag = bundle_.nets.size() == 2 &&
                           bundle_.linears.size() == 2;
    if (haveDisag && exLeft > 0) {
        // Half the remaining slice chases disagreement, half stays
        // uniform: all-disagreement can fixate on one exotic region
        // for several rounds, which is the same failure mode it is
        // meant to prevent.
        std::sort(rest.begin(), rest.end(), [&](size_t a, size_t b) {
            if (disag[a] != disag[b])
                return disag[a] > disag[b];
            return a < b;
        });
        const size_t nDis = std::min(exLeft / 2, rest.size());
        for (size_t k = 0; k < nDis; ++k)
            out.push_back(pool[rest[k]]);
        exLeft -= nDis;
        rest.erase(rest.begin(), rest.begin() + long(nDis));
    }
    for (size_t& k : rest)
        k = pool[k];
    drawRandom(rest, exLeft);

    const double dt = secondsSince(t0);
    rs.rankSeconds += dt;
    obs::recordSpan("dse", "surrogate-rank", obs::toMicros(t0),
                    uint64_t(dt * 1e6));
}

void
SurrogateStrategy::finish(DiagSink& sink)
{
    if (cfg_.saveModelPath.empty())
        return;
    if (dirty_) {
        RoundStats rs;
        train(rs);
    }
    auto warn = [&](DiagCode code, const std::string& msg) {
        Diag d;
        d.code = code;
        d.severity = DiagSeverity::Warning;
        d.stage = "surrogate";
        d.message = msg;
        sink.report(d);
    };
    if (!fitted_) {
        warn(DiagCode::UserError,
             "surrogate model not saved: nothing was trained (" +
                 std::to_string(trainX_.size()) +
                 " usable training point(s))");
        return;
    }
    std::ofstream os(cfg_.saveModelPath,
                     std::ios::trunc | std::ios::binary);
    if (os)
        ml::saveSurrogateBundle(os, bundle_);
    if (!os)
        warn(DiagCode::CheckpointIo, "cannot write surrogate model '" +
                                         cfg_.saveModelPath + "'");
}

std::unique_ptr<SearchStrategy>
makeStrategy(const ExploreConfig& cfg, const ParamSpace& space,
             const DesignPlan& plan,
             const std::vector<DesignPoint>& points, DiagSink& sink)
{
    if (cfg.strategy == StrategyKind::Random)
        return std::make_unique<RandomStrategy>();
    auto s = std::make_unique<SurrogateStrategy>(
        cfg.surrogate, cfg.seed, space, FeatureExtractor(space, plan),
        points);
    if (!cfg.surrogate.loadModelPath.empty())
        s->loadModel(cfg.surrogate.loadModelPath, sink);
    return s;
}

} // namespace dhdl::dse
