// Byte-level helpers for snapshot tests: walk the counted sections of a
// snapshot file image, and rebuild the layout that earlier writers
// produced (a pad section, a directory section, and a 16-byte uncounted
// footer after the content sections) so compatibility tests can read
// those files without keeping the old writer around.

#ifndef WIKIMATCH_TESTS_SNAPSHOT_BYTES_H_
#define WIKIMATCH_TESTS_SNAPSHOT_BYTES_H_

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "store/crc32.h"
#include "util/binary_io.h"

namespace wikimatch {
namespace testing_snapshot {

inline constexpr size_t kHeaderSize = 16;
inline constexpr size_t kSectionHeaderSize = 16;
inline constexpr uint32_t kDirectoryKind = 6;  // reserved kinds
inline constexpr uint32_t kPadKind = 7;

inline std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

inline void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One counted section of a well-formed file image.
struct SectionSpan {
  uint32_t kind = 0;
  size_t header_offset = 0;
  uint64_t payload_size = 0;
  uint32_t crc = 0;
};

inline uint32_t SectionCount(const std::string& bytes) {
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 8, 4);
  return count;
}

inline void SetSectionCount(std::string* bytes, uint32_t count) {
  std::memcpy(bytes->data() + 8, &count, 4);
}

/// The counted sections of a well-formed image, in file order.
inline std::vector<SectionSpan> Sections(const std::string& bytes) {
  std::vector<SectionSpan> out;
  size_t pos = kHeaderSize;
  for (uint32_t s = 0; s < SectionCount(bytes); ++s) {
    SectionSpan span;
    span.header_offset = pos;
    std::memcpy(&span.kind, bytes.data() + pos, 4);
    std::memcpy(&span.payload_size, bytes.data() + pos + 4, 8);
    std::memcpy(&span.crc, bytes.data() + pos + 12, 4);
    out.push_back(span);
    pos += kSectionHeaderSize + span.payload_size;
  }
  return out;
}

/// Appends one counted section with a valid CRC and bumps the count.
inline void AppendSection(std::string* bytes, uint32_t kind,
                          const std::string& payload) {
  util::BinaryWriter w;
  w.PutU32(kind);
  w.PutU64(payload.size());
  w.PutU32(store::Crc32(payload));
  *bytes += w.buffer();
  *bytes += payload;
  SetSectionCount(bytes, SectionCount(*bytes) + 1);
}

/// Rewrites a file image from the current writer into the layout earlier
/// writers produced: a zero pad section sized so the directory payload is
/// 8-byte aligned, a directory section listing every content section
/// (kind, header offset, payload size, CRC), and a footer holding the
/// directory's offset, the CRC of that offset, and the magic "WMSF".
inline std::string WithDirectoryLayout(std::string bytes) {
  const std::vector<SectionSpan> content = Sections(bytes);
  const size_t pad = (8 - (bytes.size() + 2 * kSectionHeaderSize) % 8) % 8;
  AppendSection(&bytes, kPadKind, std::string(pad, '\0'));
  const uint64_t dir_at = bytes.size();
  util::BinaryWriter dir;
  dir.PutU64(content.size());
  for (const SectionSpan& s : content) {
    dir.PutU32(s.kind);
    dir.PutU32(0);
    dir.PutU64(s.header_offset);
    dir.PutU64(s.payload_size);
    dir.PutU32(s.crc);
    dir.PutU32(0);
  }
  AppendSection(&bytes, kDirectoryKind, dir.buffer());
  util::BinaryWriter offset;
  offset.PutU64(dir_at);
  util::BinaryWriter footer;
  footer.PutU64(dir_at);
  footer.PutU32(store::Crc32(offset.buffer()));
  footer.PutU32(0x46534D57u);
  return bytes + footer.buffer();
}

}  // namespace testing_snapshot
}  // namespace wikimatch

#endif  // WIKIMATCH_TESTS_SNAPSHOT_BYTES_H_
