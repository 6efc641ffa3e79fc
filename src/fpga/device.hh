/**
 * @file
 * Target device and board model. The paper evaluates on an Altera
 * 28 nm Stratix V on a Maxeler Max4 MAIA board: 150 MHz fabric clock,
 * 48 GB DDR3 with 76.8 GB/s peak and 37.5 GB/s achieved bandwidth
 * (Section V-A). Stratix V ALMs contain a fracturable 8-input LUT
 * (pairwise packable) and two registers.
 */

#ifndef DHDL_FPGA_DEVICE_HH
#define DHDL_FPGA_DEVICE_HH

#include <cstdint>
#include <string>

namespace dhdl::fpga {

/** FPGA device + board capacities and clocks. */
struct Device {
    std::string name = "StratixV-D8";

    // Fabric capacity.
    int64_t alms = 262400;
    int64_t dsps = 1963;
    int64_t m20ks = 2567;
    int64_t m20kBits = 20480;
    /** Widest native M20K port in bits. */
    int m20kMaxWidth = 40;
    /**
     * Banks at or below this many bits are mapped to MLAB LUT-RAM
     * instead of M20K blocks (Stratix V MLAB = 640 bits).
     */
    int64_t mlabBits = 640;
    /** LUTs per ALM when fully packed. */
    int lutsPerAlm = 2;
    /** Registers per ALM. */
    int regsPerAlm = 2;

    // Clocks.
    double fabricMHz = 150.0;

    // Off-chip memory system.
    double peakBwGBs = 76.8;
    double achievedBwGBs = 37.5;
    int64_t burstBytes = 384;
    /** Fixed command round-trip latency, fabric cycles. */
    int64_t dramLatency = 120;

    /** Bytes the memory system can deliver per fabric cycle. */
    double
    bytesPerCycle() const
    {
        return achievedBwGBs * 1e9 / (fabricMHz * 1e6);
    }

    /**
     * Every field, exactly (doubles as their bit patterns), one
     * `name=value` per field: the device's part of the calibration
     * cache key. It binds every member by position, so a field added
     * above and not to fingerprint() fails to compile.
     */
    std::string fingerprint() const;

    /** The board used throughout the paper's evaluation. */
    static Device maia();
};

} // namespace dhdl::fpga

#endif // DHDL_FPGA_DEVICE_HH
