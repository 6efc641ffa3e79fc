/**
 * @file
 * The synthetic vendor toolchain: a stand-in for Altera's logic
 * synthesis + place-and-route flow, which this reproduction cannot
 * run. It produces post-P&R resource reports for whole designs by
 * applying the low-level effects the paper identifies (Section IV-A):
 *
 *   - LUT packing: ~80% of packable functions pack in pairs,
 *     reducing used LUTs by ~40%;
 *   - routing LUTs: ~10% of total LUT usage;
 *   - register duplication: ~5% of registers;
 *   - BRAM duplication: 10-100% depending on design complexity;
 *   - unavailable LUTs: ~4% from mapping constraints.
 *
 * The effects are noisy but deterministic per design (seeded by a
 * structural hash), so reports are reproducible and distinct designs
 * receive independent perturbations — giving the estimator a
 * realistic target with irreducible error, like real P&R.
 */

#ifndef DHDL_FPGA_TOOLCHAIN_HH
#define DHDL_FPGA_TOOLCHAIN_HH

#include <cstdint>
#include <vector>

#include "analysis/resources.hh"
#include "fpga/device.hh"

namespace dhdl::fpga {

/** A post-place-and-route resource report. */
struct PnrReport {
    double alms = 0;       //!< Adaptive logic modules used.
    double luts = 0;       //!< Total LUTs incl. routing/unavailable.
    double routeLuts = 0;  //!< Route-through LUTs.
    double unavailLuts = 0;//!< LUTs lost to mapping constraints.
    double regs = 0;       //!< Registers incl. duplicates.
    double dupRegs = 0;    //!< Duplicated registers.
    double dsps = 0;       //!< DSP blocks.
    double brams = 0;      //!< M20K blocks incl. duplicates.
    double dupBrams = 0;   //!< Duplicated M20Ks.
    double powerMw = 0;    //!< Total power (static + dynamic), mW.

    /** True when the design exceeds some device capacity. */
    bool fits(const Device& d) const;
};

/** The synthetic synthesis + P&R flow. */
class VendorToolchain
{
  public:
    explicit VendorToolchain(Device dev = Device::maia(),
                             uint64_t seed = 0xD4D1ull);

    const Device& device() const { return dev_; }

    /** Seed of the per-design P&R noise. */
    uint64_t seed() const { return seed_; }

    /** Synthesize a whole design instance. */
    PnrReport synthesize(const Inst& inst) const;

    /** Synthesize a pre-expanded template list (used for training). */
    PnrReport synthesizeList(const std::vector<TemplateInst>& ts) const;

    /**
     * Characterization synthesis of a single isolated template: the
     * pre-P&R resource report a vendor tool gives for a tiny design,
     * with measurement-level noise. This is the only ground-truth
     * window the estimator's template models may learn from.
     */
    Resources isolatedSynthesis(const TemplateInst& t) const;

    /** Vectorless power analysis of one isolated template, mW. */
    double isolatedPowerMw(const TemplateInst& t) const;

    /** Structural hash of a template list (noise key). */
    static uint64_t designKey(const std::vector<TemplateInst>& ts);

  private:
    Device dev_;
    uint64_t seed_;
};

} // namespace dhdl::fpga

#endif // DHDL_FPGA_TOOLCHAIN_HH
