// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-section
// checksum of the snapshot format. Slicing-by-8 tables, no dependencies.

#ifndef WIKIMATCH_STORE_CRC32_H_
#define WIKIMATCH_STORE_CRC32_H_

#include <cstdint>
#include <string_view>

namespace wikimatch {
namespace store {

/// \brief CRC-32 of `data`, optionally continuing from a previous value
/// (pass the prior return value to checksum data in chunks).
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

}  // namespace store
}  // namespace wikimatch

#endif  // WIKIMATCH_STORE_CRC32_H_
