#include "estimate/area_estimator.hh"

#include <algorithm>
#include <cmath>

#include "analysis/critical_path.hh"
#include "ml/serialize.hh"
#include "obs/trace.hh"

namespace dhdl::est {

std::vector<double>
AreaEstimator::designFeatures(const AreaModel& model,
                              const fpga::Device& dev,
                              const std::vector<TemplateInst>& ts,
                              Resources raw)
{
    std::vector<double> out;
    designFeaturesInto(model, dev, ts, raw, out);
    return out;
}

void
AreaEstimator::designFeaturesInto(const AreaModel& model,
                                  const fpga::Device& dev,
                                  const std::vector<TemplateInst>& ts,
                                  Resources raw,
                                  std::vector<double>& out)
{
    (void)model;
    double n_ctrl = 0, n_mem = 0, n_xfer = 0, bits_sum = 0;
    for (const auto& t : ts) {
        switch (templateClassOf(t.tkind)) {
          case TemplateClass::Control:
            n_ctrl += 1;
            break;
          case TemplateClass::Memory:
            n_mem += 1;
            break;
          case TemplateClass::Transfer:
            n_xfer += 1;
            break;
          case TemplateClass::Other:
            break;
        }
        bits_sum += t.bits;
    }
    double n = double(std::max<size_t>(1, ts.size()));
    out.assign({
        std::log2(1.0 + raw.lutsPack),
        std::log2(1.0 + raw.lutsNoPack),
        std::log2(1.0 + raw.regs),
        std::log2(1.0 + raw.dsps),
        std::log2(1.0 + raw.brams),
        std::log2(1.0 + n),
        n_ctrl,
        n_mem,
        n_xfer,
        bits_sum / n,
        raw.totalLuts() / double(dev.alms * dev.lutsPerAlm),
    });
}

AreaEstimator::AreaEstimator(const fpga::VendorToolchain& tc,
                             int train_designs, uint64_t seed)
    : AreaEstimator(loadOrCompute(tc, train_designs, seed))
{
}

AreaEstimator
AreaEstimator::compute(const fpga::VendorToolchain& tc,
                       int train_designs, uint64_t seed)
{
    DHDL_OBS_SPAN("estimate", "calibrate");
    AreaEstimator est(tc, train_designs, seed, ComputeTag{});
    est.calib_.source = CalibrationSource::Computed;
    est.calib_.key = calibrationKey(tc, train_designs, seed);
    return est;
}

AreaEstimator::AreaEstimator(const fpga::VendorToolchain& tc,
                             int train_designs, uint64_t seed,
                             ComputeTag)
    : dev_(tc.device()), routeNet_({11, 6, 1}, seed ^ 1),
      dupRegNet_({11, 6, 1}, seed ^ 2), unavailNet_({11, 6, 1}, seed ^ 3)
{
    // Step 1: characterize templates and fit the analytical models.
    {
        DHDL_OBS_SPAN("estimate", "characterize");
        model_.fit(characterizeTemplates(tc));
    }

    // Step 2: train the post-P&R effect networks on random designs.
    std::vector<fpga::DesignSample> samples;
    std::vector<std::vector<double>> feats;
    std::vector<std::vector<double>> targets; // route, dupReg, unavail
    std::vector<std::vector<double>> route_x; // for the BRAM-dup fit
    std::vector<double> bram_y;
    {
        DHDL_OBS_SPAN("estimate", "design-samples");
        samples = fpga::randomDesignSamples(tc, train_designs, seed);
        for (const auto& s : samples) {
            Resources raw = model_.rawCount(s.templates);
            if (raw.totalLuts() <= 0 || raw.regs <= 0)
                continue;
            feats.push_back(
                designFeatures(model_, dev_, s.templates, raw));
            targets.push_back({s.report.routeLuts / raw.totalLuts(),
                               s.report.dupRegs / raw.regs,
                               s.report.unavailLuts / raw.totalLuts()});
            route_x.push_back({s.report.routeLuts});
            bram_y.push_back(s.report.dupBrams /
                             std::max(1.0, raw.brams));
        }
    }
    require(feats.size() >= 10, "too few usable training designs");

    {
        DHDL_OBS_SPAN("estimate", "train-ann");
        featScaler_.fit(feats);
        targetScaler_.fit(targets);
        std::vector<std::vector<double>> xs(feats.size());
        std::array<std::vector<std::vector<double>>, 3> ys;
        for (size_t i = 0; i < feats.size(); ++i) {
            xs[i] = featScaler_.transformed(feats[i]);
            for (int f = 0; f < 3; ++f)
                ys[size_t(f)].push_back(
                    {targetScaler_.scaleColumn(size_t(f),
                                               targets[i][size_t(f)])});
        }
        ml::RpropTrainer(routeNet_).train(xs, ys[0], 600);
        ml::RpropTrainer(dupRegNet_).train(xs, ys[1], 600);
        ml::RpropTrainer(unavailNet_).train(xs, ys[2], 600);
    }

    // Step 3: BRAM duplication as a linear function of the number of
    // routing LUTs, "fit using the same data used to train the neural
    // networks". The regressand is the duplication *fraction* so the
    // prediction scales with the design's own block RAM count.
    bramDup_.fit(route_x, bram_y);

    // Step 4: calibrate the packing rate: 1-D search for the rate
    // that minimizes mean relative ALM error on the training designs.
    // Only assemble() depends on the rate, so the raw counts and the
    // network outputs of every design are computed once up front.
    DHDL_OBS_SPAN("estimate", "pack-rate");
    std::vector<std::pair<Effects, double>> fits; // effects, true ALMs
    AreaWorkspace ws;
    for (const auto& s : samples)
        if (s.report.alms >= 1000)
            fits.emplace_back(effects(s.templates, ws), s.report.alms);
    double best_rate = 1.0, best_err = 1e300;
    for (double rate = 0.5; rate <= 1.001; rate += 0.01) {
        double err = 0;
        for (const auto& [e, alms] : fits) {
            const double est =
                assemble(e.raw, e.route, e.dupReg, e.unavail, rate).alms;
            err += std::fabs(est - alms) / alms;
        }
        const double mean = err / double(fits.size());
        if (!fits.empty() && mean < best_err) {
            best_err = mean;
            best_rate = rate;
        }
    }
    packRate_ = best_rate;
}

AreaEstimator::AreaEstimator(fpga::Device dev, std::istream& is)
    : dev_(std::move(dev)), routeNet_({1, 1}), dupRegNet_({1, 1}),
      unavailNet_({1, 1})
{
    std::string tag, version;
    is >> tag >> version;
    require(bool(is) && tag == "area_estimator" && version == "v1",
            "bad calibration file header");
    model_ = AreaModel::load(is);
    routeNet_ = ml::loadMlp(is);
    dupRegNet_ = ml::loadMlp(is);
    unavailNet_ = ml::loadMlp(is);
    featScaler_ = ml::loadScaler(is);
    targetScaler_ = ml::loadScaler(is);
    bramDup_ = ml::loadLinear(is);
    auto rate = ml::readDoubles(is, "pack_rate");
    require(rate.size() == 1, "bad pack-rate record");
    packRate_ = rate.front();
}

void
AreaEstimator::save(std::ostream& os) const
{
    os << "area_estimator v1\n";
    model_.save(os);
    ml::saveMlp(os, routeNet_);
    ml::saveMlp(os, dupRegNet_);
    ml::saveMlp(os, unavailNet_);
    ml::saveScaler(os, featScaler_);
    ml::saveScaler(os, targetScaler_);
    ml::saveLinear(os, bramDup_);
    ml::writeDoubles(os, "pack_rate", {packRate_});
}

AreaEstimate
AreaEstimator::assemble(Resources raw, double route_frac,
                        double dup_reg_frac, double unavail_frac,
                        double pack_rate) const
{
    AreaEstimate e;
    e.raw = raw;
    e.routeLuts = std::max(0.0, route_frac) * raw.totalLuts();
    e.dupRegs = std::max(0.0, dup_reg_frac) * raw.regs;
    e.unavailLuts = std::max(0.0, unavail_frac) * raw.totalLuts();
    e.dupBrams =
        std::max(0.0, bramDup_.predict1(e.routeLuts)) * raw.brams;

    // LUT packing: routing LUTs are assumed packable; packable LUTs
    // pack pairwise (at the calibrated rate) into compute units with
    // two registers each.
    double packable = raw.lutsPack + e.routeLuts;
    double unpackable = raw.lutsNoPack + e.unavailLuts;
    double logic_units =
        unpackable + packable * (1.0 - pack_rate / 2.0);

    e.luts = raw.totalLuts() + e.routeLuts + e.unavailLuts;
    e.regs = raw.regs + e.dupRegs;
    // DSP counts are integral in reality; rounding (not ceiling) the
    // fitted estimate avoids a systematic +1 at small counts.
    e.dsps = std::round(raw.dsps);
    e.brams = std::ceil(raw.brams + e.dupBrams);

    double reg_units = std::max(
        0.0, (e.regs - double(dev_.regsPerAlm) * logic_units) /
                 double(dev_.regsPerAlm));
    e.alms = logic_units + reg_units;
    return e;
}

AreaEstimator::Effects
AreaEstimator::effects(const std::vector<TemplateInst>& ts,
                       AreaWorkspace& ws) const
{
    Effects e;
    for (const auto& t : ts)
        e.raw += model_.cost(t, ws.feat);
    designFeaturesInto(model_, dev_, ts, e.raw, ws.designFeat);
    featScaler_.transformInto(ws.designFeat, ws.scaled);
    e.route = targetScaler_.inverseColumn(
        0, routeNet_.predictScalar(ws.scaled, ws.mlp));
    e.dupReg = targetScaler_.inverseColumn(
        1, dupRegNet_.predictScalar(ws.scaled, ws.mlp));
    e.unavail = targetScaler_.inverseColumn(
        2, unavailNet_.predictScalar(ws.scaled, ws.mlp));
    return e;
}

AreaEstimate
AreaEstimator::estimateList(const std::vector<TemplateInst>& ts,
                            AreaWorkspace& ws) const
{
    const Effects e = effects(ts, ws);
    return assemble(e.raw, e.route, e.dupReg, e.unavail, packRate_);
}

AreaEstimate
AreaEstimator::estimateList(const std::vector<TemplateInst>& ts) const
{
    AreaWorkspace ws;
    return estimateList(ts, ws);
}

namespace {

/** Map a slot's (patch, base kind) onto its fused batch recipe. */
AreaBatchPlan::Recipe
resolveRecipe(const TemplateSlot& s)
{
    using R = AreaBatchPlan::Recipe;
    switch (s.patch) {
      case SlotPatch::Prim:
        return s.base.tkind == TemplateKind::PrimOp ? R::Prim
                                                    : R::Generic;
      case SlotPatch::LoadStore:
        return s.base.tkind == TemplateKind::LoadStore ? R::LoadStore
                                                       : R::Generic;
      case SlotPatch::Bram:
        return s.base.tkind == TemplateKind::BramInst ? R::Bram
                                                      : R::Generic;
      case SlotPatch::Reg:
        return s.base.tkind == TemplateKind::RegInst ? R::Reg
                                                     : R::Generic;
      case SlotPatch::Queue:
        return s.base.tkind == TemplateKind::QueueInst ? R::Queue
                                                       : R::Generic;
      case SlotPatch::Counter:
        return s.base.tkind == TemplateKind::CounterInst ? R::Counter
                                                         : R::Generic;
      case SlotPatch::Ctrl:
        switch (s.base.tkind) {
          case TemplateKind::PipeCtrl:
            return R::PipeCtrl;
          case TemplateKind::SeqCtrl:
          case TemplateKind::ParCtrl:
          case TemplateKind::MetaPipeCtrl:
            return R::Ctrl;
          default:
            return R::Generic;
        }
      case SlotPatch::CtrlSeqOrMeta:
        return R::CtrlSeqOrMeta;
      case SlotPatch::Reduce:
        return s.base.tkind == TemplateKind::ReduceTree ? R::Reduce
                                                        : R::Generic;
      case SlotPatch::DelayLine:
        return s.base.tkind == TemplateKind::DelayLine ? R::DelayLine
                                                       : R::Generic;
      case SlotPatch::Tile:
        return s.base.tkind == TemplateKind::TileTransfer ? R::Tile
                                                          : R::Generic;
    }
    return R::Generic;
}

/** Points per SoA feature tile in estimateBatch. */
constexpr size_t kAreaTile = 64;

/**
 * Fused max(0, w.f + b) accumulation of one slot's five resource
 * models into a point's raw totals. NF is the slot kind's feature
 * count, known at compile time per recipe, so the dot unrolls fully;
 * the q-order accumulation matches LinearModel::predict exactly.
 */
template <size_t NF>
inline void
accumulate(const double* f,
           const double (&w)[5][AreaModel::kMaxFeatures],
           const double (&b)[5], Resources& r)
{
    double s0 = b[0], s1 = b[1], s2 = b[2], s3 = b[3], s4 = b[4];
    for (size_t q = 0; q < NF; ++q) {
        const double fq = f[q];
        s0 += w[0][q] * fq;
        s1 += w[1][q] * fq;
        s2 += w[2][q] * fq;
        s3 += w[3][q] * fq;
        s4 += w[4][q] * fq;
    }
    r.lutsPack += std::max(0.0, s0);
    r.lutsNoPack += std::max(0.0, s1);
    r.regs += std::max(0.0, s2);
    r.dsps += std::max(0.0, s3);
    r.brams += std::max(0.0, s4);
}

/**
 * accumulate() across a whole SoA feature tile: f[q] holds feature q
 * of bn points. Looping points innermost turns every multiply-add
 * into a contiguous vectorizable sweep; per point, the partial sums
 * still start from the bias and add the weighted features in
 * ascending q — the identical order and rounding of accumulate(),
 * hence of the scalar LinearModel::predict chain.
 */
template <size_t NF>
inline void
accumulateTile(const double (&f)[AreaModel::kMaxFeatures][kAreaTile],
               size_t bn,
               const double (&w)[5][AreaModel::kMaxFeatures],
               const double (&b)[5], Resources* raw)
{
    double s[5][kAreaTile];
    for (size_t m = 0; m < 5; ++m) {
        const double bm = b[m];
        for (size_t p = 0; p < bn; ++p)
            s[m][p] = bm;
        for (size_t q = 0; q < NF; ++q) {
            const double wq = w[m][q];
            for (size_t p = 0; p < bn; ++p)
                s[m][p] += wq * f[q][p];
        }
    }
    for (size_t p = 0; p < bn; ++p) {
        Resources& r = raw[p];
        r.lutsPack += std::max(0.0, s[0][p]);
        r.lutsNoPack += std::max(0.0, s[1][p]);
        r.regs += std::max(0.0, s[2][p]);
        r.dsps += std::max(0.0, s[3][p]);
        r.brams += std::max(0.0, s[4][p]);
    }
}

/** accumulate with a runtime feature count (Generic fallback). */
inline void
accumulateN(const double* f, size_t nf,
            const double (&w)[5][AreaModel::kMaxFeatures],
            const double (&b)[5], Resources& r)
{
    double s0 = b[0], s1 = b[1], s2 = b[2], s3 = b[3], s4 = b[4];
    for (size_t q = 0; q < nf; ++q) {
        const double fq = f[q];
        s0 += w[0][q] * fq;
        s1 += w[1][q] * fq;
        s2 += w[2][q] * fq;
        s3 += w[3][q] * fq;
        s4 += w[4][q] * fq;
    }
    r.lutsPack += std::max(0.0, s0);
    r.lutsNoPack += std::max(0.0, s1);
    r.regs += std::max(0.0, s2);
    r.dsps += std::max(0.0, s3);
    r.brams += std::max(0.0, s4);
}

} // namespace

AreaBatchPlan
AreaEstimator::makeBatchPlan(const DesignPlan& plan) const
{
    AreaBatchPlan bp;
    bp.plan_ = &plan;
    const auto& slots = plan.templateSlots();
    bp.kernels_.resize(slots.size());
    bp.ok_ = true;
    // A class without models (or fitted with another arity) cannot
    // be estimated; the first one names the refusal.
    auto refuse = [&bp](const TemplateInst& t) {
        if (bp.ok_)
            bp.why_ = std::string("uncharacterized template class: ") +
                      templateKindName(t.tkind);
        bp.ok_ = false;
    };

    // The invariant count features replicate the scalar path's
    // per-point accumulation over doubles; every partial sum is an
    // exact small integer, so the precomputed totals are bit-equal.
    double bits_sum = 0;
    for (size_t i = 0; i < slots.size(); ++i) {
        const TemplateSlot& s = slots[i];
        auto& k = bp.kernels_[i];
        k.slot = &s;
        k.dual = s.patch == SlotPatch::CtrlSeqOrMeta;

        TemplateInst probe = s.base;
        if (k.dual)
            probe.tkind = TemplateKind::SeqCtrl;
        double buf[AreaModel::kMaxFeatures];
        k.nf = uint32_t(AreaModel::featuresInto(probe, buf));
        k.recipe = resolveRecipe(s);

        for (int v = 0; v < (k.dual ? 2 : 1); ++v) {
            if (v == 1)
                probe.tkind = TemplateKind::MetaPipeCtrl;
            const auto* ms = model_.tryModelsFor(probe);
            if (ms == nullptr) {
                refuse(probe);
                continue;
            }
            for (int m = 0; m < 5; ++m) {
                const auto& ws = (*ms)[size_t(m)].weights();
                if (ws.size() != k.nf) {
                    refuse(probe);
                    continue;
                }
                for (size_t q = 0; q < ws.size(); ++q)
                    k.w[v][m][q] = ws[q];
                k.b[v][m] = (*ms)[size_t(m)].bias();
            }
        }

        switch (templateClassOf(k.dual ? TemplateKind::SeqCtrl
                                       : s.base.tkind)) {
          case TemplateClass::Control:
            bp.nCtrl_ += 1;
            break;
          case TemplateClass::Memory:
            bp.nMem_ += 1;
            break;
          case TemplateClass::Transfer:
            bp.nXfer_ += 1;
            break;
          case TemplateClass::Other:
            break;
        }
        bits_sum += s.base.bits;
    }

    double n = double(std::max<size_t>(1, slots.size()));
    bp.log2n_ = std::log2(1.0 + n);
    bp.bitsOverN_ = bits_sum / n;
    bp.lutsDenom_ = double(dev_.alms * dev_.lutsPerAlm);
    return bp;
}

void
AreaEstimator::estimateBatch(const AreaBatchPlan& bp,
                             const InstPool& insts, size_t n,
                             AreaBatchWorkspace& ws,
                             AreaEstimate* out) const
{
    constexpr size_t kd = 11; // ANN design features
    invariant(bp.ok_, "estimateBatch on a failed batch plan");
    ws.raw.assign(n, Resources{});

    // Slot-outer raw counting: per field, each point accumulates one
    // max(0, dot) term per slot in slot order — the scalar path's
    // exact chain, just interleaved across the batch. Each slot's
    // recipe computes featuresInto()'s expressions directly from the
    // bound instance (identical values and operation order) without
    // patching a TemplateInst copy per point.
    for (const auto& k : bp.kernels_) {
        const TemplateSlot& s = *k.slot;
        const TemplateInst& tb = s.base;
        const NodeId id = tb.node;
        const double bits = double(tb.bits);
        const auto& w0 = k.w[0];
        const auto& b0 = k.b[0];
        double f[AreaModel::kMaxFeatures] = {};
        double ft[AreaModel::kMaxFeatures][kAreaTile];
        Resources* raw = ws.raw.data();

        // Tiled recipes gather each feature into a contiguous lane of
        // `ft` (feature-major SoA over up to kAreaTile points), then
        // let accumulateTile sweep the dot across the whole tile.
        using R = AreaBatchPlan::Recipe;
        switch (k.recipe) {
          case R::Prim:
            for (size_t lo = 0; lo < n; lo += kAreaTile) {
                const size_t bn = std::min(kAreaTile, n - lo);
                for (size_t t = 0; t < bn; ++t) {
                    const double lanes =
                        double(insts[lo + t].lanes(id));
                    ft[0][t] = lanes;
                    ft[1][t] = lanes * bits;
                    ft[2][t] = lanes * bits * bits / 64.0;
                }
                accumulateTile<3>(ft, bn, w0, b0, raw + lo);
            }
            break;
          case R::LoadStore:
            for (size_t lo = 0; lo < n; lo += kAreaTile) {
                const size_t bn = std::min(kAreaTile, n - lo);
                for (size_t t = 0; t < bn; ++t) {
                    const Inst& in = insts[lo + t];
                    const double lanes = double(in.lanes(id));
                    const int bk = s.ref != kNoNode
                                       ? in.banks(s.ref)
                                       : tb.banks;
                    const double banks = double(std::max(1, bk));
                    ft[0][t] = lanes;
                    ft[1][t] = lanes * bits;
                    ft[2][t] = lanes * banks;
                    ft[3][t] = lanes * bits *
                               std::log2(std::max(1.0, banks));
                }
                accumulateTile<4>(ft, bn, w0, b0, raw + lo);
            }
            break;
          case R::Bram:
            for (size_t lo = 0; lo < n; lo += kAreaTile) {
                const size_t bn = std::min(kAreaTile, n - lo);
                for (size_t t = 0; t < bn; ++t) {
                    const Inst& in = insts[lo + t];
                    const double lanes = double(in.lanes(id));
                    const double banks =
                        double(std::max(1, in.banks(id)));
                    const double copies =
                        lanes * (in.doubleBuffered(id) ? 2.0 : 1.0);
                    const double depth =
                        std::ceil(double(in.memElems(id)) / banks);
                    const bool mlab = depth * bits <= 640.0;
                    ft[0][t] =
                        mlab ? 0.0
                             : std::max(
                                   std::ceil(depth * bits / 20480.0),
                                   std::ceil(bits / 40.0)) *
                                   banks * copies;
                    ft[1][t] =
                        mlab ? depth * bits * banks * copies : 0.0;
                    ft[2][t] = lanes;
                    ft[3][t] = lanes * banks;
                    ft[4][t] = lanes * bits * banks / 32.0;
                    ft[5][t] = copies * bits * banks / 32.0;
                }
                accumulateTile<6>(ft, bn, w0, b0, raw + lo);
            }
            break;
          case R::Reg:
            for (size_t lo = 0; lo < n; lo += kAreaTile) {
                const size_t bn = std::min(kAreaTile, n - lo);
                for (size_t t = 0; t < bn; ++t) {
                    const Inst& in = insts[lo + t];
                    const double lanes = double(in.lanes(id));
                    const double copies =
                        lanes * (in.doubleBuffered(id) ? 2.0 : 1.0);
                    ft[0][t] = copies * bits;
                    ft[1][t] = lanes;
                    ft[2][t] = lanes * bits;
                }
                accumulateTile<3>(ft, bn, w0, b0, raw + lo);
            }
            break;
          case R::Queue:
            for (size_t lo = 0; lo < n; lo += kAreaTile) {
                const size_t bn = std::min(kAreaTile, n - lo);
                for (size_t t = 0; t < bn; ++t) {
                    const Inst& in = insts[lo + t];
                    const double lanes = double(in.lanes(id));
                    ft[0][t] = lanes * double(in.val(s.sym)) * bits;
                    ft[1][t] = lanes;
                }
                accumulateTile<2>(ft, bn, w0, b0, raw + lo);
            }
            break;
          case R::Counter:
            for (size_t lo = 0; lo < n; lo += kAreaTile) {
                const size_t bn = std::min(kAreaTile, n - lo);
                for (size_t t = 0; t < bn; ++t) {
                    const Inst& in = insts[lo + t];
                    const double lanes = double(
                        s.ref != kNoNode ? in.lanes(s.ref)
                                         : int64_t(1));
                    const double vec = double(std::max<int64_t>(
                        1, s.ref != kNoNode ? in.par(s.ref) : 1));
                    ft[0][t] = lanes * double(tb.ctrDims);
                    ft[1][t] = lanes * vec;
                    ft[2][t] = lanes;
                }
                accumulateTile<3>(ft, bn, w0, b0, raw + lo);
            }
            break;
          case R::PipeCtrl:
            for (size_t lo = 0; lo < n; lo += kAreaTile) {
                const size_t bn = std::min(kAreaTile, n - lo);
                for (size_t t = 0; t < bn; ++t) {
                    const Inst& in = insts[lo + t];
                    const double lanes = double(in.lanes(id));
                    const double vec =
                        double(std::max<int64_t>(1, in.par(id)));
                    ft[0][t] = lanes;
                    ft[1][t] = lanes * vec;
                }
                accumulateTile<2>(ft, bn, w0, b0, raw + lo);
            }
            break;
          case R::Ctrl:
            for (size_t lo = 0; lo < n; lo += kAreaTile) {
                const size_t bn = std::min(kAreaTile, n - lo);
                for (size_t t = 0; t < bn; ++t) {
                    const Inst& in = insts[lo + t];
                    const double lanes = double(in.lanes(id));
                    const double vec =
                        double(std::max<int64_t>(1, in.par(id)));
                    ft[0][t] = lanes;
                    ft[1][t] = lanes * double(tb.stages);
                    ft[2][t] = lanes * vec;
                }
                accumulateTile<3>(ft, bn, w0, b0, raw + lo);
            }
            break;
          case R::CtrlSeqOrMeta:
            // Weight bundle toggles per point; stays scalar.
            for (size_t p = 0; p < n; ++p) {
                const Inst& in = insts[p];
                const double lanes = double(in.lanes(id));
                const double vec =
                    double(std::max<int64_t>(1, in.par(id)));
                f[0] = lanes;
                f[1] = lanes * double(tb.stages);
                f[2] = lanes * vec;
                const bool alt = in.metaActive(id);
                accumulate<3>(f, k.w[alt], k.b[alt], raw[p]);
            }
            break;
          case R::Reduce:
            for (size_t lo = 0; lo < n; lo += kAreaTile) {
                const size_t bn = std::min(kAreaTile, n - lo);
                for (size_t t = 0; t < bn; ++t) {
                    const Inst& in = insts[lo + t];
                    const double lanes = double(in.lanes(id));
                    const double vec =
                        double(std::max<int64_t>(1, in.par(id)));
                    ft[0][t] = lanes * std::max(0.0, vec - 1.0);
                    ft[1][t] =
                        lanes * std::log2(1.0 + vec) * bits / 32.0;
                    ft[2][t] = lanes;
                }
                accumulateTile<3>(ft, bn, w0, b0, raw + lo);
            }
            break;
          case R::DelayLine: {
            const bool fifo = tb.depth > kBramDelayThreshold;
            const double f0w = fifo ? 0.0 : tb.delayBits;
            const double f1w =
                fifo ? std::ceil(tb.delayBits / 20480.0) : 0.0;
            for (size_t lo = 0; lo < n; lo += kAreaTile) {
                const size_t bn = std::min(kAreaTile, n - lo);
                for (size_t t = 0; t < bn; ++t) {
                    const Inst& in = insts[lo + t];
                    const double lanes =
                        double(in.lanes(id) * in.par(id));
                    ft[0][t] = f0w * lanes;
                    ft[1][t] = f1w * lanes;
                    ft[2][t] = lanes;
                }
                accumulateTile<3>(ft, bn, w0, b0, raw + lo);
            }
            break;
          }
          case R::Tile:
            for (size_t lo = 0; lo < n; lo += kAreaTile) {
                const size_t bn = std::min(kAreaTile, n - lo);
                for (size_t t = 0; t < bn; ++t) {
                    const Inst& in = insts[lo + t];
                    const double lanes = double(in.lanes(id));
                    const double vec =
                        double(std::max<int64_t>(1, in.val(s.sym)));
                    int64_t e = 1;
                    for (const Sym& x : *s.extent)
                        e *= in.val(x);
                    const double width = bits * vec;
                    ft[0][t] = lanes;
                    ft[1][t] = lanes * width;
                    ft[2][t] = lanes * std::log2(1.0 + double(e));
                    ft[3][t] =
                        lanes * std::ceil(512.0 * width / 20480.0);
                }
                accumulateTile<4>(ft, bn, w0, b0, raw + lo);
            }
            break;
          case R::Generic:
            for (size_t p = 0; p < n; ++p) {
                TemplateInst t;
                patchTemplate(s, insts[p], t);
                AreaModel::featuresInto(t, f);
                const bool alt =
                    k.dual &&
                    t.tkind == TemplateKind::MetaPipeCtrl;
                accumulateN(f, k.nf, k.w[alt], k.b[alt], raw[p]);
            }
            break;
        }
    }

    // Batched ANN tail: design-feature rows, scaling, the three
    // effect networks, then per-point assembly.
    ws.designFeat.resize(n * kd);
    ws.scaled.resize(n * kd);
    ws.route.resize(n);
    ws.dupReg.resize(n);
    ws.unavail.resize(n);
    for (size_t p = 0; p < n; ++p) {
        const Resources& raw = ws.raw[p];
        double* df = &ws.designFeat[p * kd];
        df[0] = std::log2(1.0 + raw.lutsPack);
        df[1] = std::log2(1.0 + raw.lutsNoPack);
        df[2] = std::log2(1.0 + raw.regs);
        df[3] = std::log2(1.0 + raw.dsps);
        df[4] = std::log2(1.0 + raw.brams);
        df[5] = bp.log2n_;
        df[6] = bp.nCtrl_;
        df[7] = bp.nMem_;
        df[8] = bp.nXfer_;
        df[9] = bp.bitsOverN_;
        df[10] = raw.totalLuts() / bp.lutsDenom_;
    }
    featScaler_.transformBatch(ws.designFeat.data(), n,
                               ws.scaled.data());
    routeNet_.forwardBatch(ws.scaled.data(), n, ws.route.data(),
                           ws.mlp);
    dupRegNet_.forwardBatch(ws.scaled.data(), n, ws.dupReg.data(),
                            ws.mlp);
    unavailNet_.forwardBatch(ws.scaled.data(), n, ws.unavail.data(),
                             ws.mlp);
    for (size_t p = 0; p < n; ++p)
        out[p] = assemble(ws.raw[p],
                          targetScaler_.inverseColumn(0, ws.route[p]),
                          targetScaler_.inverseColumn(1, ws.dupReg[p]),
                          targetScaler_.inverseColumn(2, ws.unavail[p]),
                          packRate_);
}

AreaEstimate
AreaEstimator::estimate(const Inst& inst) const
{
    AreaWorkspace ws;
    return estimate(inst, ws);
}

AreaEstimate
AreaEstimator::estimate(const Inst& inst, AreaWorkspace& ws) const
{
    expandTemplates(inst, ws.templates);
    return estimateList(ws.templates, ws);
}

AreaEstimate
AreaEstimator::estimateAnalyticOnly(
    const std::vector<TemplateInst>& ts) const
{
    // Average correction factors straight from Section IV-A prose
    // (~10% routing, ~5% duplicated registers, ~4% unavailable), with
    // the BRAM-dup linear model replaced by its training-mean slope.
    // The paper's literal packing assumption ("all packable LUTs will
    // be packed") without the calibration step.
    Resources raw = model_.rawCount(ts);
    return assemble(raw, 0.10, 0.05, 0.04, 1.0);
}

const fpga::VendorToolchain&
defaultToolchain()
{
    static fpga::VendorToolchain tc;
    return tc;
}

const AreaEstimator&
calibratedEstimator()
{
    static AreaEstimator est(defaultToolchain());
    return est;
}

} // namespace dhdl::est
