#include "estimate/area_model.hh"

#include <cmath>

#include "analysis/critical_path.hh"
#include "ml/serialize.hh"

namespace dhdl::est {

uint64_t
AreaModel::classKey(const TemplateInst& t)
{
    uint64_t k = uint64_t(t.tkind) << 16;
    if (t.tkind == TemplateKind::PrimOp ||
        t.tkind == TemplateKind::ReduceTree) {
        k |= uint64_t(t.op) << 1;
        k |= uint64_t(t.isFloat);
    }
    return k;
}

size_t
AreaModel::featuresInto(const TemplateInst& t, double* out)
{
    double lanes = double(t.lanes);
    double vec = double(std::max<int64_t>(1, t.vec));
    double bits = double(t.bits);
    double banks = double(std::max(1, t.banks));
    double copies = lanes * (t.doubleBuf ? 2.0 : 1.0);

    switch (t.tkind) {
      case TemplateKind::PrimOp:
        out[0] = lanes;
        out[1] = lanes * bits;
        out[2] = lanes * bits * bits / 64.0;
        return 3;
      case TemplateKind::LoadStore:
        out[0] = lanes;
        out[1] = lanes * bits;
        out[2] = lanes * banks;
        out[3] = lanes * bits * std::log2(std::max(1.0, banks));
        return 4;
      case TemplateKind::BramInst: {
        // Physical block count is a deterministic function of the
        // geometry; give it to the regression as a feature. Banks of
        // 640 bits or less map to MLAB LUT-RAM, not M20K.
        double depth = std::ceil(double(t.elems) / banks);
        bool mlab = depth * bits <= 640.0;
        double phys = mlab ? 0.0
                           : std::max(std::ceil(depth * bits / 20480.0),
                                      std::ceil(bits / 40.0)) *
                                 banks * copies;
        double mlab_bits = mlab ? depth * bits * banks * copies : 0.0;
        out[0] = phys;
        out[1] = mlab_bits;
        out[2] = lanes;
        out[3] = lanes * banks;
        out[4] = lanes * bits * banks / 32.0;
        out[5] = copies * bits * banks / 32.0;
        return 6;
      }
      case TemplateKind::RegInst:
        out[0] = copies * bits;
        out[1] = lanes;
        out[2] = lanes * bits;
        return 3;
      case TemplateKind::QueueInst:
        out[0] = lanes * double(t.depth) * bits;
        out[1] = lanes;
        return 2;
      case TemplateKind::CounterInst:
        out[0] = lanes * double(t.ctrDims);
        out[1] = lanes * vec;
        out[2] = lanes;
        return 3;
      case TemplateKind::PipeCtrl:
        out[0] = lanes;
        out[1] = lanes * vec;
        return 2;
      case TemplateKind::SeqCtrl:
      case TemplateKind::ParCtrl:
      case TemplateKind::MetaPipeCtrl:
        out[0] = lanes;
        out[1] = lanes * double(t.stages);
        out[2] = lanes * vec;
        return 3;
      case TemplateKind::TileTransfer: {
        double width = bits * vec;
        out[0] = lanes;
        out[1] = lanes * width;
        out[2] = lanes * std::log2(1.0 + double(t.tileElems));
        out[3] = lanes * std::ceil(512.0 * width / 20480.0);
        return 4;
      }
      case TemplateKind::ReduceTree:
        out[0] = lanes * std::max(0.0, vec - 1.0);
        out[1] = lanes * std::log2(1.0 + vec) * bits / 32.0;
        out[2] = lanes;
        return 3;
      case TemplateKind::DelayLine: {
        bool fifo = t.depth > kBramDelayThreshold;
        double bits_total = t.delayBits * lanes;
        out[0] = fifo ? 0.0 : bits_total;
        out[1] = fifo ? std::ceil(t.delayBits / 20480.0) * lanes : 0.0;
        out[2] = lanes;
        return 3;
      }
    }
    out[0] = lanes;
    return 1;
}

void
AreaModel::featuresInto(const TemplateInst& t, std::vector<double>& out)
{
    // Range-assign from warm capacity allocates nothing per template;
    // the raw overload holds the one copy of the feature expressions.
    double buf[kMaxFeatures];
    size_t n = featuresInto(t, buf);
    out.assign(buf, buf + n);
}

size_t
AreaModel::featuresBatchInto(const TemplateInst* ts, size_t n,
                             double* out)
{
    size_t nf = 0;
    for (size_t i = 0; i < n; ++i)
        nf = featuresInto(ts[i], out + i * kMaxFeatures);
    return nf;
}

std::vector<double>
AreaModel::features(const TemplateInst& t)
{
    std::vector<double> out;
    featuresInto(t, out);
    return out;
}

void
AreaModel::fit(const std::vector<fpga::TemplateSample>& samples)
{
    require(!samples.empty(), "no characterization samples");
    // Group samples per class.
    std::unordered_map<uint64_t, std::vector<const fpga::TemplateSample*>>
        groups;
    for (const auto& s : samples)
        groups[classKey(s.inst)].push_back(&s);

    models_.clear();
    for (auto& [key, group] : groups) {
        std::vector<std::vector<double>> x;
        std::array<std::vector<double>, 5> y;
        for (const auto* s : group) {
            x.push_back(features(s->inst));
            y[0].push_back(s->observed.lutsPack);
            y[1].push_back(s->observed.lutsNoPack);
            y[2].push_back(s->observed.regs);
            y[3].push_back(s->observed.dsps);
            y[4].push_back(s->observed.brams);
        }
        auto& ms = models_[key];
        for (int i = 0; i < 5; ++i)
            ms[size_t(i)].fit(x, y[size_t(i)], 1e-6);
    }
    order_.clear();
    for (const auto& m : models_)
        order_.push_back(m.first);
    resolve();
}

void
AreaModel::resolve()
{
    for (auto& r : resolved_)
        r.present = false;
    // Kinds other than PrimOp/ReduceTree ignore op/isFloat in their
    // class key, so each resolves to exactly one bundle.
    for (size_t k = 0; k < kNumTemplateKinds; ++k) {
        auto kind = TemplateKind(k);
        if (kind == TemplateKind::PrimOp ||
            kind == TemplateKind::ReduceTree)
            continue;
        auto it = models_.find(uint64_t(k) << 16);
        if (it == models_.end())
            continue;
        resolved_[k].present = true;
        resolved_[k].models = it->second;
    }
}

const std::array<ml::LinearModel, 5>*
AreaModel::tryModelsFor(const TemplateInst& t) const noexcept
{
    const auto& fast = resolved_[size_t(t.tkind)];
    if (fast.present)
        return &fast.models;
    auto it = models_.find(classKey(t));
    if (it == models_.end()) {
        // Fall back to the kind-wide default class (op Add, fixed).
        TemplateInst d = t;
        d.op = Op::Add;
        d.isFloat = false;
        it = models_.find(classKey(d));
        if (it == models_.end())
            return nullptr;
    }
    return &it->second;
}

const std::array<ml::LinearModel, 5>&
AreaModel::modelsFor(const TemplateInst& t) const
{
    const auto* ms = tryModelsFor(t);
    require(ms != nullptr,
            std::string("uncharacterized template class: ") +
                templateKindName(t.tkind));
    return *ms;
}

Resources
AreaModel::cost(const TemplateInst& t, std::vector<double>& feat) const
{
    const auto& ms = modelsFor(t);
    featuresInto(t, feat);
    Resources r;
    r.lutsPack = std::max(0.0, ms[0].predict(feat));
    r.lutsNoPack = std::max(0.0, ms[1].predict(feat));
    r.regs = std::max(0.0, ms[2].predict(feat));
    r.dsps = std::max(0.0, ms[3].predict(feat));
    r.brams = std::max(0.0, ms[4].predict(feat));
    return r;
}

Resources
AreaModel::cost(const TemplateInst& t) const
{
    std::vector<double> feat;
    return cost(t, feat);
}

Resources
AreaModel::rawCount(const std::vector<TemplateInst>& ts) const
{
    Resources total;
    std::vector<double> feat;
    for (const auto& t : ts)
        total += cost(t, feat);
    return total;
}

void
AreaModel::save(std::ostream& os) const
{
    os << "area_model " << order_.size() << " v1\n";
    for (uint64_t key : order_) {
        os << "class " << key << "\n";
        for (const auto& m : models_.at(key))
            ml::saveLinear(os, m);
    }
}

AreaModel
AreaModel::load(std::istream& is)
{
    std::string tag, version;
    size_t count = 0;
    is >> tag >> count >> version;
    require(bool(is) && tag == "area_model" && version == "v1",
            "bad area-model file header");
    AreaModel model;
    for (size_t i = 0; i < count; ++i) {
        std::string ctag;
        uint64_t key = 0;
        is >> ctag >> key;
        require(bool(is) && ctag == "class",
                "bad area-model class record");
        require(!model.models_.count(key),
                "duplicate area-model class record");
        model.order_.push_back(key);
        auto& ms = model.models_[key];
        for (auto& m : ms)
            m = ml::loadLinear(is);
    }
    model.resolve();
    return model;
}

} // namespace dhdl::est
