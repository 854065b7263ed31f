// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-section
// integrity check of the checkpoint format v2, the WAL frames and the
// pipeline manifest. Slicing-by-8: eight 256-entry tables consume 8 bytes
// per step, with a byte-at-a-time tail; the values are those of the
// classic byte-at-a-time table. Incremental via the running-crc overload
// so writers can checksum while streaming.

#ifndef LAYERGCN_UTIL_CRC32_H_
#define LAYERGCN_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace layergcn::util {

/// CRC-32 of `len` bytes at `data`.
uint32_t Crc32(const void* data, size_t len);

/// Extends a running CRC (start from Crc32Init(), finish with Crc32Final()).
uint32_t Crc32Init();
uint32_t Crc32Update(uint32_t crc, const void* data, size_t len);
uint32_t Crc32Final(uint32_t crc);

}  // namespace layergcn::util

#endif  // LAYERGCN_UTIL_CRC32_H_
