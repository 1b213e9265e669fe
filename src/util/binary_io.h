// Little-endian binary encoding primitives for the snapshot store.
//
// BinaryWriter appends fixed-width integers, IEEE doubles, and
// length-prefixed strings to a byte buffer — kept whole in memory, or
// handed to a sink in fixed-size blocks as the encoding proceeds (the
// snapshot writer streams each section to its file this way, without
// holding the section in memory); BinaryReader decodes the same stream
// and reports truncation or overlong length fields as a clean
// util::Status instead of reading out of bounds. The encoding is byte-order
// independent (values are assembled byte by byte), so snapshots written on
// one machine load on any other.

#ifndef WIKIMATCH_UTIL_BINARY_IO_H_
#define WIKIMATCH_UTIL_BINARY_IO_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>

#include "util/result.h"

namespace wikimatch {
namespace util {

/// \brief Appends little-endian primitives to a byte buffer.
class BinaryWriter {
 public:
  /// Size of every block a streaming writer hands to its sink (the last
  /// block of a stream may be shorter).
  static constexpr size_t kBlockBytes = 64 * 1024;
  /// Receives a streaming writer's bytes, one block at a time, in order.
  using Sink = std::function<Status(std::string_view block)>;

  /// In-memory writer: every byte stays in buffer().
  BinaryWriter() = default;
  /// Streaming writer: each completed kBlockBytes block goes to `sink` as
  /// soon as it is full, and Flush() hands over the short last one. After
  /// the first sink error no further block is handed over, and Flush()
  /// returns that error.
  explicit BinaryWriter(Sink sink);

  void PutU8(uint8_t v) {
    buffer_.push_back(static_cast<char>(v));
    MaybeDrain();
  }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// Doubles travel as their IEEE-754 bit pattern in a u64.
  void PutDouble(double v);
  /// u64 byte length followed by the raw bytes.
  void PutString(std::string_view s);
  /// Raw bytes, no length prefix (section payloads already carry sizes).
  void PutBytes(std::string_view s) {
    buffer_.append(s);
    MaybeDrain();
  }

  /// \brief Hands the buffered bytes of a streaming writer to its sink;
  /// the first sink error, or OK. Nothing to do for an in-memory writer.
  Status Flush();

  /// The bytes not yet handed to a sink: all of them in memory.
  const std::string& buffer() const { return buffer_; }
  std::string TakeBuffer() { return std::move(buffer_); }
  /// Bytes written so far, streamed ones included.
  size_t size() const { return streamed_ + buffer_.size(); }

 private:
  void MaybeDrain() {
    if (buffer_.size() >= drain_at_) Drain();
  }
  /// Hands every whole block at the front of the buffer to the sink.
  void Drain();

  std::string buffer_;
  Sink sink_;
  /// Buffer size at which Drain() runs; never reached in memory.
  size_t drain_at_ = std::numeric_limits<size_t>::max();
  size_t streamed_ = 0;  // bytes already handed to the sink
  Status sink_status_;
};

/// \brief Decodes a BinaryWriter stream; every read is bounds-checked.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<double> ReadDouble();
  Result<std::string> ReadString();

  size_t offset() const { return offset_; }
  size_t remaining() const { return data_.size() - offset_; }
  bool AtEnd() const { return offset_ == data_.size(); }

 private:
  /// OutOfRange unless `n` more bytes are available.
  Status Require(size_t n) const;

  std::string_view data_;
  size_t offset_ = 0;
};

}  // namespace util
}  // namespace wikimatch

#endif  // WIKIMATCH_UTIL_BINARY_IO_H_
