#include "core/checksum.hh"

#include <array>
#include <cstdio>

namespace dhdl {

namespace {

constexpr std::array<uint32_t, 256>
makeCrcTable()
{
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

constexpr auto kCrcTable = makeCrcTable();

} // namespace

uint32_t
crc32(std::string_view bytes)
{
    uint32_t c = 0xFFFFFFFFu;
    for (unsigned char ch : bytes)
        c = kCrcTable[(c ^ ch) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

uint64_t
fnv1a(std::string_view bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char ch : bytes) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hexDigits(uint64_t v, int digits)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%0*llx", digits,
                  (unsigned long long)v);
    return buf;
}

} // namespace dhdl
