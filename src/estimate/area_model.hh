/**
 * @file
 * Template-level analytical area models. Each template class (kind,
 * plus operator and number type for datapath templates) gets five
 * linear models — packable LUTs, unpackable LUTs, registers, DSPs and
 * block RAMs — fit against isolated characterization synthesis runs
 * (Section IV-B: "Using this data, we create analytical models of
 * each DHDL template's resource requirements"). The models are
 * application-independent and characterized once per device/toolchain.
 */

#ifndef DHDL_ESTIMATE_AREA_MODEL_HH
#define DHDL_ESTIMATE_AREA_MODEL_HH

#include <array>
#include <iostream>
#include <unordered_map>
#include <vector>

#include "fpga/characterize.hh"
#include "ml/linreg.hh"

namespace dhdl::est {

/** Fitted per-template analytical resource models. */
class AreaModel
{
  public:
    /** Fit from characterization observations. */
    void fit(const std::vector<fpga::TemplateSample>& samples);

    /** Predicted raw resources of one template instance. */
    Resources cost(const TemplateInst& t) const;

    /**
     * Scratch-reusing variant for evaluate-many sweeps: `feat` is
     * overwritten with the instance's feature vector (its capacity is
     * reused across calls).
     */
    Resources cost(const TemplateInst& t,
                   std::vector<double>& feat) const;

    /** Predicted raw resources of a whole template list. */
    Resources rawCount(const std::vector<TemplateInst>& ts) const;

    /** Model-class key for a template instance (exposed for tests). */
    static uint64_t classKey(const TemplateInst& t);

    /** Feature vector used for the class's regression. */
    static std::vector<double> features(const TemplateInst& t);

    /** features(), written into reusable scratch storage. */
    static void featuresInto(const TemplateInst& t,
                             std::vector<double>& out);

    /** Upper bound on the per-template feature count (BramInst). */
    static constexpr size_t kMaxFeatures = 6;

    /**
     * features() into a raw buffer of at least kMaxFeatures slots;
     * returns the kind's feature count. This is the one definition of
     * the feature expressions — the vector overload and the batched
     * matrix form both delegate here, so every path computes
     * bit-identical values.
     */
    static size_t featuresInto(const TemplateInst& t, double* out);

    /**
     * Matrix form for batched sweeps: fill one row of kMaxFeatures
     * per instance (row-major, n x kMaxFeatures; unused tail columns
     * are left as-is). Returns the feature count of the instances'
     * kind, which is uniform for the template-slot batches this
     * serves (a CtrlSeqOrMeta slot alternates between SeqCtrl and
     * MetaPipeCtrl, which share a feature layout).
     */
    static size_t featuresBatchInto(const TemplateInst* ts, size_t n,
                                    double* out);

    /**
     * The class's fitted 5-model bundle (after the kind-wide default
     * fallback), or null when the class is uncharacterized. The
     * batched evaluator resolves every slot through this at batch-
     * plan build time, so an uncharacterized class refuses the whole
     * design up front instead of throwing from inside a batch kernel.
     */
    const std::array<ml::LinearModel, 5>*
    tryModelsFor(const TemplateInst& t) const noexcept;

    size_t numClasses() const { return models_.size(); }

    /**
     * Persist the fitted per-class models (text, versioned). Classes
     * are written in order_, so a loaded model saves exactly the bytes
     * it was loaded from.
     */
    void save(std::ostream& os) const;

    /** Restore previously persisted models. */
    static AreaModel load(std::istream& is);

  private:
    /** The 5-model bundle for a template class, with the kind-wide
     *  default fallback; throws when uncharacterized. */
    const std::array<ml::LinearModel, 5>&
    modelsFor(const TemplateInst& t) const;

    /**
     * Rebuild the per-kind resolved table. Kinds whose class key is
     * op-independent (everything except PrimOp/ReduceTree) resolve to
     * one model bundle; copying it into a flat array at fit/load time
     * removes the per-cost hash lookup from the sweep's hot path.
     */
    void resolve();

    /** lutsPack, lutsNoPack, regs, dsps, brams. */
    std::unordered_map<uint64_t, std::array<ml::LinearModel, 5>> models_;

    /** Class keys in save order: models_'s iteration order right
     *  after fit() (the historical bytes), or the file's order after
     *  load(). */
    std::vector<uint64_t> order_;

    struct Resolved {
        bool present = false;
        std::array<ml::LinearModel, 5> models;
    };
    std::array<Resolved, kNumTemplateKinds> resolved_;
};

} // namespace dhdl::est

#endif // DHDL_ESTIMATE_AREA_MODEL_HH
