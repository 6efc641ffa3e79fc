/**
 * @file
 * Content checksums for durable on-disk formats. Two independent
 * uses, two functions:
 *
 *  - crc32(): IEEE CRC-32, the per-record integrity check of the
 *    explore checkpoint format. Detects torn tails and corrupted
 *    records on resume/merge so a killed writer can never poison a
 *    restored run.
 *  - fnv1a(): 64-bit FNV-1a, the cheap content fingerprint used for
 *    checkpoint headers (design-IR hash, ParamSpace fingerprint).
 *    Not error-detecting in the CRC sense — it answers "is this the
 *    same design/space?", not "did bits rot?".
 *
 * Both are byte-order independent and fully deterministic across
 * platforms, which the byte-identity guarantees of checkpoint merge
 * rely on.
 */

#ifndef DHDL_CORE_CHECKSUM_HH
#define DHDL_CORE_CHECKSUM_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace dhdl {

/** IEEE CRC-32 (polynomial 0xEDB88320) of the bytes. */
uint32_t crc32(std::string_view bytes);

/** 64-bit FNV-1a hash of the bytes. */
uint64_t fnv1a(std::string_view bytes);

/** `v` as `digits` (at most 16) zero-padded lowercase hex digits,
 *  the rendering of both checksums in file headers and records. */
std::string hexDigits(uint64_t v, int digits);

} // namespace dhdl

#endif // DHDL_CORE_CHECKSUM_HH
