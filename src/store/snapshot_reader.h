// The snapshot reader. MappedSnapshot::Map mmaps a snapshot file, checks
// the fixed header, and builds its section table by walking the
// section_count counted section headers (16 bytes each; the walk reads no
// payload bytes, so it costs microseconds at any file size). Every bound
// is checked against the real file size before it is used, so forged
// sizes are reported as OutOfRange, never read past.
//
// Section CRCs are validated lazily: the first Payload() touch of a
// section checks its CRC-32 and caches the verdict (sticky both ways), so
// corruption is always detected before any decoded byte is trusted, just
// not before the process starts answering health checks. Decode() touches
// every counted section, reserved and unknown kinds included, so its
// errors name the section ordinal. ReadSnapshotFile (store/snapshot.h) is
// Map + Decode.
//
// Lifetime: the mapping holds the pages, not the directory entry — a
// snapshot file may be replaced (SnapshotWriter renames over it) or
// unlinked while mapped, and every outstanding string_view stays valid
// until the MappedSnapshot is destroyed. The serving layer pins one
// shared_ptr<MappedSnapshot> per generation for exactly this reason
// (docs/SERVING.md).

#ifndef WIKIMATCH_STORE_SNAPSHOT_READER_H_
#define WIKIMATCH_STORE_SNAPSHOT_READER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "store/snapshot.h"
#include "util/result.h"

namespace wikimatch {
namespace store {

/// \brief A snapshot file mapped read-only into the address space.
class MappedSnapshot {
 public:
  /// \brief Maps `path` and walks its section headers.
  ///
  /// Errors: IoError (cannot open, stat, or map), OutOfRange (file ends
  /// inside the header, a section header, or a payload), ParseError (bad
  /// magic, zero section count, no corpus or dictionary section),
  /// InvalidArgument (unsupported version).
  static util::Result<std::shared_ptr<MappedSnapshot>> Map(
      const std::string& path);

  ~MappedSnapshot();

  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  /// \brief Counted sections, in file order (unknown kinds included).
  size_t num_sections() const { return entries_.size(); }

  SectionKind section_kind(size_t idx) const {
    return static_cast<SectionKind>(entries_[idx].kind);
  }

  /// \brief The section's payload bytes, in place in the mapping. The
  /// first touch of a section CRC-validates it; the verdict is cached and
  /// sticky (a corrupt section stays an error on every later touch).
  /// Thread-safe; concurrent first touches may both compute the CRC.
  util::Result<std::string_view> Payload(size_t idx) const;

  /// \brief Payload of the first section of `kind`; NotFound when the
  /// snapshot has no such section.
  util::Result<std::string_view> PayloadOfKind(SectionKind kind) const;

  /// \brief Decodes every section into an in-memory Snapshot, validating
  /// each section's CRC as it is touched.
  util::Result<Snapshot> Decode() const;

  const std::string& path() const { return path_; }
  uint64_t file_size() const { return size_; }

 private:
  struct Entry {
    uint32_t kind = 0;
    uint64_t payload_offset = 0;
    uint64_t payload_size = 0;
    uint32_t crc = 0;
  };

  MappedSnapshot() = default;

  std::string path_;
  const unsigned char* base_ = nullptr;
  uint64_t size_ = 0;
  std::vector<Entry> entries_;
  // Lazy per-section CRC state: 0 = unchecked, 1 = verified, 2 = corrupt.
  // unique_ptr<atomic[]> because vector<atomic> is not movable.
  std::unique_ptr<std::atomic<uint8_t>[]> crc_state_;
};

}  // namespace store
}  // namespace wikimatch

#endif  // WIKIMATCH_STORE_SNAPSHOT_READER_H_
