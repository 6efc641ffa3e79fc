#include "fpga/device.hh"

#include <bit>
#include <type_traits>

namespace dhdl::fpga {

std::string
Device::fingerprint() const
{
    // Binding every member by position turns a field added to Device
    // but not to this list into a compile error (the binding count no
    // longer matches), so two devices that differ in any field can
    // never share a calibration key.
    const auto& [name_, alms_, dsps_, m20ks_, m20kBits_, m20kMaxWidth_,
                 mlabBits_, lutsPerAlm_, regsPerAlm_, fabricMHz_,
                 peakBwGBs_, achievedBwGBs_, burstBytes_, dramLatency_] =
        *this;
    std::string out;
    auto put = [&](const char* field, auto v) {
        if constexpr (std::is_floating_point_v<decltype(v)>)
            out += std::string(field) + "=" +
                   std::to_string(std::bit_cast<uint64_t>(v)) + ";";
        else
            out += std::string(field) + "=" + std::to_string(v) + ";";
    };
    out += "name=" + name_ + ";";
    put("alms", alms_);
    put("dsps", dsps_);
    put("m20ks", m20ks_);
    put("m20kBits", m20kBits_);
    put("m20kMaxWidth", m20kMaxWidth_);
    put("mlabBits", mlabBits_);
    put("lutsPerAlm", lutsPerAlm_);
    put("regsPerAlm", regsPerAlm_);
    put("fabricMHz", fabricMHz_);
    put("peakBwGBs", peakBwGBs_);
    put("achievedBwGBs", achievedBwGBs_);
    put("burstBytes", burstBytes_);
    put("dramLatency", dramLatency_);
    return out;
}

Device
Device::maia()
{
    return Device{};
}

} // namespace dhdl::fpga
