#include "util/binary_io.h"

#include <cstring>

namespace wikimatch {
namespace util {

BinaryWriter::BinaryWriter(Sink sink)
    : sink_(std::move(sink)), drain_at_(kBlockBytes) {
  // Room for a block plus one fixed-width put; only a long string can
  // make the buffer grow past it.
  buffer_.reserve(kBlockBytes + sizeof(uint64_t));
}

void BinaryWriter::PutU32(uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  buffer_.append(bytes, sizeof(bytes));
  MaybeDrain();
}

void BinaryWriter::PutU64(uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  buffer_.append(bytes, sizeof(bytes));
  MaybeDrain();
}

void BinaryWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void BinaryWriter::PutString(std::string_view s) {
  PutU64(s.size());
  PutBytes(s);
}

void BinaryWriter::Drain() {
  const size_t whole = buffer_.size() - buffer_.size() % kBlockBytes;
  for (size_t at = 0; at < whole && sink_status_.ok(); at += kBlockBytes) {
    sink_status_ = sink_(std::string_view(buffer_).substr(at, kBlockBytes));
  }
  buffer_.erase(0, whole);
  streamed_ += whole;
}

Status BinaryWriter::Flush() {
  if (!sink_) return Status::OK();
  if (!buffer_.empty() && sink_status_.ok()) sink_status_ = sink_(buffer_);
  streamed_ += buffer_.size();
  buffer_.clear();
  return sink_status_;
}

Status BinaryReader::Require(size_t n) const {
  if (n > remaining()) {
    return Status::OutOfRange("truncated stream: need " + std::to_string(n) +
                              " bytes at offset " + std::to_string(offset_) +
                              ", have " + std::to_string(remaining()));
  }
  return Status::OK();
}

Result<uint8_t> BinaryReader::ReadU8() {
  WIKIMATCH_RETURN_NOT_OK(Require(1));
  return static_cast<uint8_t>(data_[offset_++]);
}

Result<uint32_t> BinaryReader::ReadU32() {
  WIKIMATCH_RETURN_NOT_OK(Require(4));
  uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[offset_++]))
         << shift;
  }
  return v;
}

Result<uint64_t> BinaryReader::ReadU64() {
  WIKIMATCH_RETURN_NOT_OK(Require(8));
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[offset_++]))
         << shift;
  }
  return v;
}

Result<double> BinaryReader::ReadDouble() {
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> BinaryReader::ReadString() {
  WIKIMATCH_ASSIGN_OR_RETURN(uint64_t size, ReadU64());
  WIKIMATCH_RETURN_NOT_OK(Require(size));
  std::string out(data_.substr(offset_, size));
  offset_ += size;
  return out;
}

}  // namespace util
}  // namespace wikimatch
