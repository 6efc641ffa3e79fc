/**
 * @file
 * Deterministic surrogate-search features of a candidate design
 * point. The surrogate strategy must score *un-evaluated* bindings,
 * so every feature here is computable from the binding, the legal
 * parameter space and the compiled (binding-invariant) DesignPlan —
 * no instantiation, no estimator call.
 *
 * Feature schema v1, in order (P = parameter count):
 *
 *   [0 .. P)   log2(1 + value_p)            per parameter, in order
 *   [P]        log2(1 + prod of values)     overall scale
 *   [P + 1]    log2(1 + local memory bits)  ParamSpace::localMemBits
 *   [P + 2]    control-template slot count  (constant per design)
 *   [P + 3]    memory-template slot count   (constant per design)
 *   [P + 4]    transfer-template slot count (constant per design)
 *   [P + 5]    other-template slot count    (constant per design)
 *
 * The trailing structural counts are constant across one design's
 * pool; ml::MinMaxScaler maps constant columns to 0, so they are
 * harmless within a run and make a persisted model refuse (via the
 * scaler bounds) to silently transfer across structurally different
 * designs with the same parameter count.
 */

#ifndef DHDL_DSE_FEATURES_HH
#define DHDL_DSE_FEATURES_HH

#include <vector>

#include "analysis/plan.hh"
#include "dse/space.hh"

namespace dhdl::dse {

/** Version tag of the feature layout above (bump on change). */
inline constexpr int kFeatureSchemaVersion = 1;

/** Compiled-once extractor of surrogate features for one design. */
class FeatureExtractor
{
  public:
    /** `space` must outlive the extractor. */
    FeatureExtractor(const ParamSpace& space, const DesignPlan& plan);

    /** Length of the feature vector (nparams + 6). */
    size_t count() const { return nparams_ + 6; }

    /** Write the count() features of `b` into out[0..count()). */
    void featuresInto(const ParamBinding& b, double* out) const;

    /** Allocating convenience form of featuresInto(). */
    std::vector<double> features(const ParamBinding& b) const;

  private:
    const ParamSpace& space_;
    size_t nparams_ = 0;
    double slotCounts_[4] = {0, 0, 0, 0};
};

} // namespace dhdl::dse

#endif // DHDL_DSE_FEATURES_HH
