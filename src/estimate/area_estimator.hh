/**
 * @file
 * Hybrid area estimation (Section IV-B2). Pipeline:
 *
 *  1. Count raw resources per node from the fitted template models
 *     (including delay-matching resources from ASAP slack analysis).
 *  2. Predict global post-P&R effects with small ANNs (11-6-1, one
 *     per factor): routing LUTs, duplicated registers, unavailable
 *     LUTs. Duplicated BRAMs are a linear function of routing LUTs.
 *  3. Add the effects to the raw counts, then model LUT packing
 *     ("the simple assumption that all packable LUTs will be
 *     packed"), pairing packable LUTs into compute units with two
 *     registers each, to obtain ALMs, DSPs and BRAMs.
 *
 * The estimator is calibrated once per device + toolchain: template
 * characterization plus ANN training on 200 random design samples.
 * The calibration is stored in an on-disk cache keyed by everything
 * that decides its bits (calibrationKey()), so a process loads it in
 * about a millisecond instead of recomputing it.
 */

#ifndef DHDL_ESTIMATE_AREA_ESTIMATOR_HH
#define DHDL_ESTIMATE_AREA_ESTIMATOR_HH

#include <iostream>
#include <memory>
#include <optional>

#include "analysis/instance.hh"
#include "core/diag.hh"
#include "estimate/area_model.hh"
#include "ml/mlp.hh"
#include "ml/scaler.hh"

namespace dhdl::est {

/** Full area estimate with the intermediate effect predictions. */
struct AreaEstimate {
    Resources raw;          //!< Template-model resource counts.
    double routeLuts = 0;   //!< Predicted route-through LUTs.
    double dupRegs = 0;     //!< Predicted duplicated registers.
    double unavailLuts = 0; //!< Predicted unusable LUTs.
    double dupBrams = 0;    //!< Predicted duplicated block RAMs.
    double alms = 0;
    double luts = 0;
    double regs = 0;
    double dsps = 0;
    double brams = 0;

    bool
    fits(const fpga::Device& d) const
    {
        return alms <= double(d.alms) && dsps <= double(d.dsps) &&
               brams <= double(d.m20ks);
    }
};

/**
 * Reusable scratch storage for evaluate-many sweeps. One workspace
 * per evaluating thread; its vectors keep their capacity across
 * points so the steady state allocates nothing.
 */
struct AreaWorkspace {
    std::vector<TemplateInst> templates;
    std::vector<double> feat;       //!< per-template feature scratch
    std::vector<double> designFeat; //!< 11 ANN design features
    std::vector<double> scaled;     //!< scaled ANN input
    ml::MlpWorkspace mlp;           //!< MLP ping-pong scratch
};

/**
 * Binding-invariant compilation of one design's area estimate: every
 * template slot's linear-model bundle resolved and packed into
 * contiguous weight rows, plus the seven ANN design features that do
 * not depend on the binding (template-kind counts and bit widths are
 * fixed by the plan; only the raw resource totals vary per point).
 * Built once per explored design, shared read-only by every worker.
 *
 * A CtrlSeqOrMeta slot toggles between SeqCtrl and MetaPipeCtrl per
 * binding, so it carries both kinds' bundles and the batch kernel
 * selects per point. Both kinds count as control templates and share
 * a feature layout, so the invariant features stay invariant.
 */
class AreaBatchPlan
{
  public:
    AreaBatchPlan() = default;

    /**
     * False when some slot's template class is uncharacterized (or
     * fitted with a mismatched arity): the design cannot be
     * evaluated, and why() names the first such class.
     */
    bool ok() const { return ok_; }
    const std::string& why() const { return why_; }

    const DesignPlan* plan() const { return plan_; }

    /**
     * Fused patch+featurize recipe per slot, resolved from the slot's
     * (patch, base kind) pair at plan build. Each recipe computes the
     * slot kind's exact featuresInto() expressions straight from the
     * bound instance — same value provenance, same conversions, same
     * operation order — without materializing the TemplateInst copy
     * the scalar path patches. Generic covers any unexpected combo by
     * running the scalar patch+featurize per point.
     */
    enum class Recipe : uint8_t {
        Prim,
        LoadStore,
        Bram,
        Reg,
        Queue,
        Counter,
        PipeCtrl,
        Ctrl,          //!< Seq/Par/Meta via the static Ctrl patch.
        CtrlSeqOrMeta, //!< Ctrl features + per-point bundle toggle.
        Reduce,
        DelayLine,
        Tile,
        Generic,
    };

  private:
    friend class AreaEstimator;

    /** One slot's packed model bundle(s): weights laid out for a
     *  single fused pass over the feature row. */
    struct SlotKernel {
        const TemplateSlot* slot = nullptr;
        uint32_t nf = 0;    //!< feature count of the slot's kind
        Recipe recipe = Recipe::Generic;
        bool dual = false;  //!< CtrlSeqOrMeta: [1] = MetaPipeCtrl
        /** [variant][lutsPack,lutsNoPack,regs,dsps,brams][feature] */
        double w[2][5][AreaModel::kMaxFeatures] = {};
        double b[2][5] = {};
    };

    std::vector<SlotKernel> kernels_;
    const DesignPlan* plan_ = nullptr;
    double nCtrl_ = 0;     //!< control-template count
    double nMem_ = 0;      //!< on-chip memory template count
    double nXfer_ = 0;     //!< tile-transfer template count
    double log2n_ = 0;     //!< log2(1 + template count)
    double bitsOverN_ = 0; //!< mean template bit width
    double lutsDenom_ = 1; //!< device LUT capacity (ratio feature)
    bool ok_ = false;
    std::string why_;
};

/**
 * Structure-of-arrays scratch for batched estimation: per-point raw
 * totals from the fused slot kernels, then the batched ANN tail. One
 * workspace per evaluating thread; steady state allocates nothing.
 */
struct AreaBatchWorkspace {
    std::vector<Resources> raw;        //!< per-point raw totals
    std::vector<double> designFeat;    //!< n x 11 ANN features
    std::vector<double> scaled;        //!< n x 11 scaled rows
    std::vector<double> route;         //!< routeNet outputs
    std::vector<double> dupReg;        //!< dupRegNet outputs
    std::vector<double> unavail;       //!< unavailNet outputs
    ml::MlpWorkspace mlp;
};

/** Where an estimator's calibration came from. */
enum class CalibrationSource : uint8_t {
    Loaded,     //!< The stream constructor.
    Computed,   //!< AreaEstimator::compute(); the cache was not read.
    Hit,        //!< A valid cache entry was loaded.
    Miss,       //!< No entry (or no usable cache): computed, stored.
    Recomputed, //!< A bad entry: warned, computed, overwritten.
};

/** "loaded", "computed", "hit", "miss" or "recomputed". */
const char* calibrationSourceName(CalibrationSource s);

/** How an estimator was calibrated. */
struct CalibrationInfo {
    CalibrationSource source = CalibrationSource::Loaded;
    /** calibrationKey() of the inputs; empty when Loaded. */
    std::string key;
    /** The cache entry consulted; empty when no cache was usable. */
    std::string path;
    /** Why a bad cache entry was recomputed (Recomputed only). */
    std::optional<Diag> warning;
};

/** Calibrated hybrid area estimator. */
class AreaEstimator
{
  public:
    /**
     * The calibration against `tc`: loaded from the cache entry for
     * calibrationKey(tc, train_designs, seed) when a valid one
     * exists, otherwise computed as compute() does and stored. An
     * entry with a wrong header, key, CRC or body is never used: it
     * gives calibration().warning, a recompute and an overwrite.
     */
    explicit AreaEstimator(const fpga::VendorToolchain& tc,
                           int train_designs = 200,
                           uint64_t seed = 0xA11CE);

    /**
     * Calibrate against a toolchain without the cache: run the
     * template characterization sweep, fit the analytical models,
     * then train the effect ANNs on train_designs random design
     * samples. This is the cache-miss path itself.
     */
    static AreaEstimator compute(const fpga::VendorToolchain& tc,
                                 int train_designs = 200,
                                 uint64_t seed = 0xA11CE);

    /**
     * Restore a previously calibrated estimator from a stream (see
     * save()); `dev` must be the device it was calibrated for.
     */
    AreaEstimator(fpga::Device dev, std::istream& is);

    /**
     * Persist the full calibration (template models, ANNs, scalers,
     * BRAM-duplication fit, packing rate). A loaded estimator saves
     * exactly the bytes it was loaded from.
     */
    void save(std::ostream& os) const;

    const CalibrationInfo& calibration() const { return calib_; }

    /** Estimate a whole design instance. */
    AreaEstimate estimate(const Inst& inst) const;

    /**
     * Estimate a design instance reusing per-thread scratch storage;
     * ws.templates holds the expansion on return.
     */
    AreaEstimate estimate(const Inst& inst, AreaWorkspace& ws) const;

    /** Estimate a pre-expanded template list. */
    AreaEstimate
    estimateList(const std::vector<TemplateInst>& ts) const;

    /** estimateList with the full per-thread workspace (no allocs). */
    AreaEstimate estimateList(const std::vector<TemplateInst>& ts,
                              AreaWorkspace& ws) const;

    /**
     * Resolve every template slot of `plan` against the calibrated
     * models. Check ok() before using the result with estimateBatch;
     * a failed plan means the design has an uncharacterized template
     * class and cannot be estimated.
     */
    AreaBatchPlan makeBatchPlan(const DesignPlan& plan) const;

    /**
     * Estimate insts[0..n) — n bindings of the batch plan's design —
     * into out[0..n). Iterates slot-outer: each template slot is
     * patched, featurized and costed across the whole batch before
     * moving to the next slot, which turns the per-point model
     * lookups into contiguous SIMD-friendly loops. Every per-point
     * arithmetic expression and accumulation order matches the scalar
     * estimate() path exactly, so out[i] is bit-identical to
     * estimate(insts[i], ws).
     */
    void estimateBatch(const AreaBatchPlan& bp, const InstPool& insts,
                       size_t n, AreaBatchWorkspace& ws,
                       AreaEstimate* out) const;

    /**
     * Ablation: analytic-only estimate with fixed average correction
     * factors instead of the ANNs (used by bench/ablation_estimator).
     */
    AreaEstimate
    estimateAnalyticOnly(const std::vector<TemplateInst>& ts) const;

    const AreaModel& model() const { return model_; }
    const fpga::Device& device() const { return dev_; }

    /** The 11 ANN input features for a design (Section IV-B2). */
    static std::vector<double>
    designFeatures(const AreaModel& model, const fpga::Device& dev,
                   const std::vector<TemplateInst>& ts, Resources raw);

    /** designFeatures() into a caller-owned buffer (no allocation). */
    static void
    designFeaturesInto(const AreaModel& model, const fpga::Device& dev,
                       const std::vector<TemplateInst>& ts,
                       Resources raw, std::vector<double>& out);

  private:
    struct ComputeTag {};

    /** compute() without its span: the characterization and
     *  training steps, each under its own span. */
    AreaEstimator(const fpga::VendorToolchain& tc, int train_designs,
                  uint64_t seed, ComputeTag);

    /** The cached constructor's body (estimate/calibration_cache). */
    static AreaEstimator loadOrCompute(const fpga::VendorToolchain& tc,
                                       int train_designs,
                                       uint64_t seed);

    /** Everything of an estimate that the packing rate leaves
     *  unchanged: raw counts and the de-scaled network outputs. */
    struct Effects {
        Resources raw;
        double route = 0;   //!< routing-LUT fraction
        double dupReg = 0;  //!< duplicated-register fraction
        double unavail = 0; //!< unavailable-LUT fraction
    };

    /** estimateList() up to assemble(). */
    Effects effects(const std::vector<TemplateInst>& ts,
                    AreaWorkspace& ws) const;

    AreaEstimate
    assemble(Resources raw, double route_frac, double dup_reg_frac,
             double unavail_frac, double pack_rate) const;

    fpga::Device dev_;
    AreaModel model_;
    ml::Mlp routeNet_;
    ml::Mlp dupRegNet_;
    ml::Mlp unavailNet_;
    ml::MinMaxScaler featScaler_;
    ml::MinMaxScaler targetScaler_; //!< 3 columns: route/dupReg/unavail.
    ml::LinearModel bramDup_;       //!< dupBrams ~ routeLuts.
    /**
     * Calibrated pairwise packing rate: fraction of packable LUTs the
     * toolchain actually packs, fit on the training designs (the
     * paper assumes 1.0 after observing ~0.8 in practice; calibrating
     * removes the systematic ALM bias of that assumption).
     */
    double packRate_ = 1.0;
    CalibrationInfo calib_;
};

/**
 * The calibration cache key: 16 hex digits of a hash over every input
 * that decides the calibration bits — each field of the toolchain's
 * device, the toolchain seed, train_designs and seed, a digest of the
 * calibrating sources (src/{obs,core,analysis,ml,fpga,estimate}) and
 * of the compiler, its version and flags, computed by the build, plus
 * the host's glibc version and whether its CPU has FMA (libm picks
 * its tanh/expm1 code by CPU feature).
 */
std::string calibrationKey(const fpga::VendorToolchain& tc,
                           int train_designs, uint64_t seed);

/**
 * The calibration cache directory, created when missing:
 * $XDG_CACHE_HOME/dhdl when that is an absolute path, otherwise
 * $HOME/.cache/dhdl. Empty when no directory is usable; the cache
 * is then skipped and every estimator computes.
 */
std::string calibrationCacheDir();

/**
 * Write `est` (computed, so calibration().key is set) as the cache
 * entry for its key, atomically. Returns the entry's path, or an
 * empty string when no cache directory is usable or the write
 * failed.
 */
std::string storeCalibration(const AreaEstimator& est);

/**
 * Process-wide calibrated estimator against the default MAIA board
 * toolchain (calibration runs once, lazily).
 */
const AreaEstimator& calibratedEstimator();

/** The toolchain instance paired with calibratedEstimator(). */
const fpga::VendorToolchain& defaultToolchain();

} // namespace dhdl::est

#endif // DHDL_ESTIMATE_AREA_ESTIMATOR_HH
