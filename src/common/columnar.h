// Generic machinery of the columnar block codec (CompressionKind::kColumnar):
// a self-describing container that splits a record block into typed columns,
// plus the cursor/dictionary primitives schema codecs decode them with.
//
// A columnar payload is an *alternative serialization* of a value, not a
// compression of its legacy bytes:
//
//   [magic(4) | schema(1) | ncols:varint | len[0..n):varint | col bytes... |
//    fnv1a64(everything before)]
//
// The column lengths double as a per-column offset table (offsets are prefix
// sums), so a decoder slices column views straight out of the stored buffer —
// decompression never materializes anything. The magic begins with
// {0x80, 0x00}: a non-minimal varint encoding of zero, which BinaryWriter's
// minimal varint/zigzag emitters never produce as the leading bytes of a
// legacy payload, so a whole-value decoder can route on the first bytes with
// no possibility of collision.
//
// Schema-specific column layouts (EventList, Delta, VersionChainSegment) live
// next to their types; this header knows nothing about them.

#ifndef HGS_COMMON_COLUMNAR_H_
#define HGS_COMMON_COLUMNAR_H_

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/serde.h"

namespace hgs {

/// What a stored value's payload means — the writer's declaration of which
/// columnar schema (if any) may encode the row. kOpaque rows are never
/// columnar-encoded.
enum class ValueSchema : uint8_t {
  kOpaque = 0,
  kEventList = 1,
  kDelta = 2,
  kVersionChain = 3,
};

inline constexpr size_t kColumnarMagicSize = 4;
/// First two bytes are a non-minimal varint prefix (see file comment); the
/// tail identifies the container and its version.
inline constexpr unsigned char kColumnarMagic[kColumnarMagicSize] = {
    0x80, 0x00, 0xC5, 0x01};

/// Smallest syntactically possible payload: magic, schema, ncols=0, checksum.
inline constexpr size_t kColumnarMinPayloadSize =
    kColumnarMagicSize + 1 + 1 + kChecksumWireSize;

/// True when `data` begins with the columnar container magic. Legacy
/// payloads (which begin with a minimally-encoded varint) can never match.
inline bool IsColumnarPayload(std::string_view data) {
  if (data.size() < kColumnarMagicSize) return false;
  for (size_t i = 0; i < kColumnarMagicSize; ++i) {
    if (static_cast<unsigned char>(data[i]) != kColumnarMagic[i]) return false;
  }
  return true;
}

/// Assembles a columnar payload: add each column's bytes in schema order,
/// then Finish() to get the container with its trailing checksum.
class ColumnarBlockWriter {
 public:
  explicit ColumnarBlockWriter(ValueSchema schema) : schema_(schema) {}

  void AddColumn(std::string bytes) { columns_.push_back(std::move(bytes)); }

  std::string Finish() const;

 private:
  ValueSchema schema_;
  std::vector<std::string> columns_;
};

/// Parses the container: verifies magic, schema, checksum and the column
/// length table, then exposes each column as a view into `payload` (which
/// must outlive the reader — in the read path it is the shared stored
/// buffer, so decoding is pure view slicing).
class ColumnarBlockReader {
 public:
  static Result<ColumnarBlockReader> Parse(std::string_view payload,
                                           ValueSchema expected_schema);

  size_t num_columns() const { return columns_.size(); }

  /// Bounds-checked column view; Corruption when the schema expected more
  /// columns than the block carries.
  Result<std::string_view> Column(size_t i) const {
    if (i >= columns_.size()) {
      return Status::Corruption("columnar block: missing column");
    }
    return columns_[i];
  }

 private:
  ColumnarBlockReader() = default;
  std::vector<std::string_view> columns_;
};

// -- encode/decode cursors ---------------------------------------------------

/// a - b and a + b in two's complement: the delta codecs wrap where int64
/// arithmetic would overflow, so every int64 sequence round-trips and
/// hostile deltas decode to some value instead of undefined behaviour.
inline int64_t WrappingSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t WrappingAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

/// Delta-of-previous encoder for monotone-ish integer columns (timestamps,
/// sorted ids): emits zigzag varints of successive differences.
struct DeltaInt64Encoder {
  int64_t prev = 0;
  void Put(BinaryWriter* w, int64_t v) {
    w->PutSigned64(WrappingSub(v, prev));
    prev = v;
  }
};

/// Decoding counterpart of DeltaInt64Encoder (failures latch r->failed()).
struct DeltaInt64Decoder {
  int64_t prev = 0;
  int64_t Next(BinaryReader* r) {
    prev = WrappingAdd(prev, r->ReadSigned64());
    return prev;
  }
};

/// Bit-packed bool column: varint count, then ceil(count/8) bytes, LSB
/// first.
class BitColumnWriter {
 public:
  void Append(bool b) {
    if (count_ % 8 == 0) bytes_.push_back(0);
    if (b) bytes_.back() |= static_cast<char>(1u << (count_ % 8));
    ++count_;
  }
  std::string Finish() const {
    BinaryWriter w;
    w.PutVarint64(count_);
    w.PutRaw(bytes_);
    return w.Finish();
  }

 private:
  std::string bytes_;
  uint64_t count_ = 0;
};

class BitColumnReader {
 public:
  /// Binds to a column view; malformed lengths latch `r`'s failed() flag on
  /// the first Next().
  static BitColumnReader Bind(std::string_view column) {
    BitColumnReader out;
    BinaryReader r(column);
    out.count_ = r.ReadVarint64();
    if (r.failed() || (out.count_ + 7) / 8 > r.remaining()) {
      out.bad_ = true;
      return out;
    }
    out.bits_ = column.substr(column.size() - r.remaining());
    return out;
  }

  bool Next(BinaryReader* r) {
    if (bad_ || next_ >= count_) {
      r->MarkFailed();
      return false;
    }
    bool b = (static_cast<unsigned char>(bits_[next_ / 8]) >> (next_ % 8)) & 1;
    ++next_;
    return b;
  }

 private:
  std::string_view bits_;
  uint64_t count_ = 0;
  uint64_t next_ = 0;
  bool bad_ = false;
};

/// Nibble-packed small-enum column (event types: 8 codes fit in 4 bits):
/// varint count, then ceil(count/2) bytes, low nibble first.
class NibbleColumnWriter {
 public:
  void Append(uint8_t v) {
    if (count_ % 2 == 0) {
      bytes_.push_back(static_cast<char>(v & 0xF));
    } else {
      bytes_.back() |= static_cast<char>((v & 0xF) << 4);
    }
    ++count_;
  }
  std::string Finish() const {
    BinaryWriter w;
    w.PutVarint64(count_);
    w.PutRaw(bytes_);
    return w.Finish();
  }

 private:
  std::string bytes_;
  uint64_t count_ = 0;
};

class NibbleColumnReader {
 public:
  static NibbleColumnReader Bind(std::string_view column) {
    NibbleColumnReader out;
    BinaryReader r(column);
    out.count_ = r.ReadVarint64();
    if (r.failed() || (out.count_ + 1) / 2 > r.remaining()) {
      out.bad_ = true;
      return out;
    }
    out.nibbles_ = column.substr(column.size() - r.remaining());
    return out;
  }

  uint8_t Next(BinaryReader* r) {
    if (bad_ || next_ >= count_) {
      r->MarkFailed();
      return 0;
    }
    uint8_t byte = static_cast<unsigned char>(nibbles_[next_ / 2]);
    uint8_t v = next_ % 2 == 0 ? (byte & 0xF) : (byte >> 4);
    ++next_;
    return v;
  }

 private:
  std::string_view nibbles_;
  uint64_t count_ = 0;
  uint64_t next_ = 0;
  bool bad_ = false;
};

// -- per-block string dictionary ---------------------------------------------

/// Builds the sorted dictionary segment of one block: collect every string
/// occurrence, Build() once, then map occurrences to dense ids. Sortedness
/// makes the segment deterministic for identical logical content (the ingest
/// determinism contract) and clusters shared prefixes for any outer codec.
class StringDictBuilder {
 public:
  /// Collects one occurrence. Views must stay valid until Serialize().
  void Add(std::string_view s) { entries_.push_back(s); }

  /// Sorts + dedups. Must be called before IdOf/Serialize.
  void Build() {
    std::sort(entries_.begin(), entries_.end());
    entries_.erase(std::unique(entries_.begin(), entries_.end()),
                   entries_.end());
  }

  uint32_t IdOf(std::string_view s) const {
    auto it = std::lower_bound(entries_.begin(), entries_.end(), s);
    return static_cast<uint32_t>(it - entries_.begin());
  }

  /// Dictionary column: varint count, then length-prefixed entries in
  /// sorted order.
  std::string Serialize() const {
    BinaryWriter w;
    w.PutVarint64(entries_.size());
    for (std::string_view s : entries_) w.PutString(s);
    return w.Finish();
  }

 private:
  std::vector<std::string_view> entries_;
};

/// View-parsed dictionary segment: entry views point into the column (and
/// through it into the stored buffer).
class StringDictView {
 public:
  static Result<StringDictView> Parse(std::string_view column) {
    StringDictView out;
    BinaryReader r(column);
    uint64_t n = r.ReadVarint64();
    if (r.failed()) return Status::Corruption("columnar dict: bad count");
    out.entries_.reserve(std::min<uint64_t>(n, r.remaining()));
    for (uint64_t i = 0; i < n; ++i) {
      std::string_view s = r.ReadBytesView();
      if (r.failed()) return Status::Corruption("columnar dict: truncated");
      out.entries_.push_back(s);
    }
    return out;
  }

  /// Entry for `id`; out-of-range ids latch `r`'s failed() flag.
  std::string_view Get(uint64_t id, BinaryReader* r) const {
    if (id >= entries_.size()) {
      r->MarkFailed();
      return {};
    }
    return entries_[id];
  }

  size_t size() const { return entries_.size(); }

 private:
  std::vector<std::string_view> entries_;
};

}  // namespace hgs

#endif  // HGS_COMMON_COLUMNAR_H_
