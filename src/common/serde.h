// Binary serialization of every row stored in the key-value store, and of
// the compression and columnar containers around them.
//
// Encoding conventions:
//  * unsigned integers: LEB128 varint
//  * signed integers:   zigzag + varint
//  * strings/blobs:     varint length prefix + raw bytes
//  * records:           field-by-field, schema fixed by the caller
//
// A trailing FNV-1a checksum guards serialized rows against corruption;
// see BinaryWriter::FinishWithChecksum / BinaryReader::VerifyChecksum.

#ifndef HGS_COMMON_SERDE_H_
#define HGS_COMMON_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hgs {

/// 64-bit FNV-1a hash, used both as a checksum and a cheap content hash.
uint64_t Fnv1a64(const void* data, size_t n);

// -- wire-size arithmetic ----------------------------------------------------
// Exact encoded sizes of the primitives above, so value types can report
// their serialized size without writing a buffer (decoded-cache charging,
// Table 1 cost accounting).

/// Encoded size of PutVarint64(v).
inline size_t VarintWireSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Encoded size of PutSigned64(v) (zigzag + varint).
inline size_t Signed64WireSize(int64_t v) {
  return VarintWireSize((static_cast<uint64_t>(v) << 1) ^
                        static_cast<uint64_t>(v >> 63));
}

/// Encoded size of PutString(s) (varint length prefix + raw bytes).
inline size_t StringWireSize(std::string_view s) {
  return VarintWireSize(s.size()) + s.size();
}

/// Size of the trailing checksum appended by FinishWithChecksum.
inline constexpr size_t kChecksumWireSize = 8;

/// Append-only buffer with varint primitives.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void PutVarint64(uint64_t v);
  void PutVarint32(uint32_t v) { PutVarint64(v); }
  void PutSigned64(int64_t v);
  void PutFixed8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutFixed64(uint64_t v);
  void PutString(std::string_view s);
  void PutBool(bool b) { PutFixed8(b ? 1 : 0); }
  /// Appends bytes verbatim, with no length prefix (the caller's schema
  /// fixes their length).
  void PutRaw(std::string_view bytes) { buf_.append(bytes); }

  /// Appends an 8-byte FNV-1a checksum of everything written so far and
  /// releases the buffer. After this the writer is reset.
  std::string FinishWithChecksum();

  /// Releases the buffer without a checksum.
  std::string Finish();

  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Sequential reader over a serialized buffer: the one way stored bytes
/// become values. Every Read* is a pointer-bumping decode that returns the
/// value directly and, on truncation or corruption, latches a sticky
/// failed() flag instead of reading out of bounds. After failed() flips,
/// every further Read* returns a zero value and the cursor stops advancing,
/// so a record decoder reads all its fields and checks BulkStatus() once
/// (loops over a decoded count also stop on failed()).
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  /// Validates and strips the trailing checksum written by
  /// FinishWithChecksum. Must be called before any reads.
  Status VerifyChecksum();

  uint64_t ReadVarint64();
  /// A varint that must fit 32 bits; a larger value latches failed().
  uint32_t ReadVarint32() {
    uint64_t v = ReadVarint64();
    if (v > UINT32_MAX) {
      failed_ = true;
      return 0;
    }
    return static_cast<uint32_t>(v);
  }
  int64_t ReadSigned64() {
    uint64_t z = ReadVarint64();
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }
  uint8_t ReadFixed8() {
    if (pos_ >= data_.size()) {
      failed_ = true;
      return 0;
    }
    return static_cast<uint8_t>(data_[pos_++]);
  }
  bool ReadBool() { return ReadFixed8() != 0; }
  /// Length-prefixed bytes as a view into the underlying buffer (no copy);
  /// valid as long as the buffer passed to the constructor is.
  std::string_view ReadBytesView();

  bool failed() const { return failed_; }
  /// Latches the sticky error from a caller-side validity check (e.g. an
  /// out-of-range enum byte) so decoding aborts uniformly.
  void MarkFailed() { failed_ = true; }
  /// Sticky-error check as a Status, for returning out of decoders.
  Status BulkStatus() const {
    return failed_ ? Status::Corruption("truncated or corrupt buffer")
                   : Status::OK();
  }

  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace hgs

#endif  // HGS_COMMON_SERDE_H_
