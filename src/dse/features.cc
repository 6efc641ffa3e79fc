#include "dse/features.hh"

#include <cmath>

#include "analysis/templates.hh"
#include "core/error.hh"

namespace dhdl::dse {

FeatureExtractor::FeatureExtractor(const ParamSpace& space,
                                   const DesignPlan& plan)
    : space_(space), nparams_(space.legalValues().size())
{
    for (const TemplateSlot& s : plan.templateSlots())
        slotCounts_[size_t(templateClassOf(s.base.tkind))] += 1.0;
}

void
FeatureExtractor::featuresInto(const ParamBinding& b,
                               double* out) const
{
    require(b.values.size() == nparams_,
            "binding arity does not match the parameter space");
    double prod = 1.0;
    for (size_t i = 0; i < nparams_; ++i) {
        const double v = double(b.values[i]);
        out[i] = std::log2(1.0 + v);
        prod *= v;
    }
    out[nparams_ + 0] = std::log2(1.0 + prod);
    const int64_t bits = space_.localMemBits(b);
    out[nparams_ + 1] = std::log2(1.0 + double(bits > 0 ? bits : 0));
    out[nparams_ + 2] = slotCounts_[0];
    out[nparams_ + 3] = slotCounts_[1];
    out[nparams_ + 4] = slotCounts_[2];
    out[nparams_ + 5] = slotCounts_[3];
}

std::vector<double>
FeatureExtractor::features(const ParamBinding& b) const
{
    std::vector<double> out(count());
    featuresInto(b, out.data());
    return out;
}

} // namespace dhdl::dse
