#include "common/compression.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace hgs {

namespace {

constexpr size_t kWindowSize = 64 * 1024;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 255 + kMinMatch;
constexpr int kHashBits = 15;

inline uint32_t HashQuad(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

// The chain heads (hash -> latest position, -1 for none), one table per
// thread, all -1 between calls: a call restores every entry it set, so
// compressing a small value costs O(its size) rather than a fill of the
// whole 2^kHashBits table.
class ChainHeads {
 public:
  ChainHeads() : head_(Table()) {}
  ~ChainHeads() {
    for (uint32_t h : set_) head_[h] = -1;
  }
  ChainHeads(const ChainHeads&) = delete;
  ChainHeads& operator=(const ChainHeads&) = delete;

  int64_t Get(uint32_t h) const { return head_[h]; }
  void Set(uint32_t h, int64_t pos) {
    if (head_[h] < 0) set_.push_back(h);
    head_[h] = pos;
  }

 private:
  static std::vector<int64_t>& Table() {
    thread_local std::vector<int64_t> table(1u << kHashBits, -1);
    return table;
  }

  std::vector<int64_t>& head_;
  std::vector<uint32_t> set_;
};

// Token stream grammar (after the header):
//   literal_len:varint  literal_bytes  match_len:varint  match_dist:varint
// repeated; match_len == 0 terminates the stream after trailing literals.
// A literal run is a length-prefixed string (BinaryWriter::PutString), and
// no match is longer than kMaxMatch.
std::string LzCompressImpl(std::string_view in) {
  BinaryWriter out;
  ChainHeads head;
  std::vector<int64_t> prev(in.size(), -1);

  size_t i = 0;
  size_t lit_start = 0;
  while (i < in.size()) {
    size_t best_len = 0;
    size_t best_dist = 0;
    if (i + kMinMatch <= in.size()) {
      uint32_t h = HashQuad(in.data() + i);
      int64_t cand = head.Get(h);
      int chain = 16;  // bounded chain walk keeps compression O(n)
      while (cand >= 0 && chain-- > 0 &&
             i - static_cast<size_t>(cand) <= kWindowSize) {
        size_t c = static_cast<size_t>(cand);
        size_t max_len = std::min(kMaxMatch, in.size() - i);
        size_t len = 0;
        while (len < max_len && in[c + len] == in[i + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = i - c;
        }
        cand = prev[c];
      }
      prev[i] = head.Get(h);
      head.Set(h, static_cast<int64_t>(i));
    }
    if (best_len >= kMinMatch) {
      out.PutString(in.substr(lit_start, i - lit_start));
      out.PutVarint64(best_len);
      out.PutVarint64(best_dist);
      // Index the matched region sparsely so later matches can reference it.
      size_t end = i + best_len;
      for (size_t j = i + 1; j + kMinMatch <= in.size() && j < end; j += 2) {
        uint32_t h2 = HashQuad(in.data() + j);
        prev[j] = head.Get(h2);
        head.Set(h2, static_cast<int64_t>(j));
      }
      i = end;
      lit_start = i;
    } else {
      ++i;
    }
  }
  out.PutString(in.substr(lit_start, i - lit_start));
  out.PutVarint64(0);
  return out.Finish();
}

// Every body byte yields at most kMaxMatch output bytes (a literal byte one,
// a match token at most kMaxMatch), so a larger claimed size is rejected
// before anything is allocated, and no run may pass the claimed size.
Result<std::string> LzDecompressImpl(std::string_view in,
                                     uint64_t uncompressed_size) {
  if (uncompressed_size > in.size() * kMaxMatch) {
    return Status::Corruption("claimed size exceeds what the block encodes");
  }
  std::string out;
  out.reserve(uncompressed_size);
  BinaryReader r(in);
  while (!r.AtEnd()) {
    std::string_view literal = r.ReadBytesView();
    if (r.failed() || literal.size() > uncompressed_size - out.size()) {
      return Status::Corruption("bad literal run");
    }
    out.append(literal);
    if (r.AtEnd()) break;
    uint64_t match_len = r.ReadVarint64();
    if (r.failed()) return r.BulkStatus();
    if (match_len == 0) break;
    uint64_t dist = r.ReadVarint64();
    if (r.failed() || match_len > kMaxMatch ||
        match_len > uncompressed_size - out.size()) {
      return Status::Corruption("bad match run");
    }
    if (dist == 0 || dist > out.size()) {
      return Status::Corruption("bad match distance");
    }
    size_t from = out.size() - dist;
    for (uint64_t k = 0; k < match_len; ++k) {
      out.push_back(out[from + k]);  // may overlap; byte-by-byte is correct
    }
  }
  if (out.size() != uncompressed_size) {
    return Status::Corruption("decompressed size mismatch");
  }
  return out;
}

/// Parsed block header: codec tag + claimed uncompressed size + body
/// offset. One parser serves both the string and the zero-copy decompress
/// paths, so the two can never disagree about the wire contract.
struct BlockHeader {
  CompressionKind kind;
  uint64_t raw_size;
  size_t body_offset;
};

Result<BlockHeader> ParseBlockHeader(std::string_view input) {
  BinaryReader r(input);
  auto kind = static_cast<CompressionKind>(r.ReadFixed8());
  uint64_t raw_size = r.ReadVarint64();
  if (r.failed()) return Status::Corruption("bad compressed block header");
  return BlockHeader{kind, raw_size, input.size() - r.remaining()};
}

// The block envelope: codec tag, uncompressed size, then the codec's body.
std::string Envelope(CompressionKind kind, size_t raw_size,
                     std::string_view body) {
  BinaryWriter w;
  w.PutFixed8(static_cast<uint8_t>(kind));
  w.PutVarint64(raw_size);
  w.PutRaw(body);
  return w.Finish();
}

// Schema -> codec table. Filled during static initialization (single-
// threaded) by the translation units owning each schema's type, read-only
// afterwards; zero-initialized before any dynamic initializer runs, so
// registration order across TUs cannot matter.
struct ColumnarCodec {
  ColumnarEncodeFn encode = nullptr;
  ColumnarReencodeFn reencode = nullptr;
};
constexpr size_t kMaxSchemas = 8;
ColumnarCodec g_columnar_codecs[kMaxSchemas];

const ColumnarCodec* LookupColumnarCodec(ValueSchema schema) {
  auto i = static_cast<size_t>(schema);
  if (i >= kMaxSchemas || g_columnar_codecs[i].encode == nullptr) {
    return nullptr;
  }
  return &g_columnar_codecs[i];
}

}  // namespace

void RegisterColumnarCodec(ValueSchema schema, ColumnarEncodeFn encode,
                           ColumnarReencodeFn reencode) {
  auto i = static_cast<size_t>(schema);
  if (i == 0 || i >= kMaxSchemas) return;
  g_columnar_codecs[i] = ColumnarCodec{encode, reencode};
}

bool HasColumnarCodec(ValueSchema schema) {
  return LookupColumnarCodec(schema) != nullptr;
}

std::string Compress(std::string_view input, CompressionKind kind,
                     ValueSchema schema) {
  if (kind == CompressionKind::kColumnar) {
    // Encode both ways and keep the smaller block. The LZ arm already
    // degrades to stored format when LZ does not pay, so the choice is
    // min(columnar, LZ, stored) — a pure function of the bytes (parallel
    // ingest determinism) with kLz as the transparent fallback for blocks
    // where columnar loses (high-entropy values) or no codec is registered.
    std::string lz = Compress(input, CompressionKind::kLz);
    if (const ColumnarCodec* codec = LookupColumnarCodec(schema)) {
      std::optional<std::string> columnar = codec->encode(input);
      if (columnar.has_value()) {
        std::string out =
            Envelope(CompressionKind::kColumnar, input.size(), *columnar);
        if (out.size() < lz.size()) return out;
      }
    }
    return lz;
  }
  if (kind == CompressionKind::kLz) {
    std::string body = LzCompressImpl(input);
    // Fall back to stored format when compression does not pay off.
    if (body.size() + 16 < input.size()) {
      return Envelope(CompressionKind::kLz, input.size(), body);
    }
  }
  return Envelope(CompressionKind::kNone, input.size(), input);
}

Result<std::string> Decompress(std::string_view input) {
  HGS_ASSIGN_OR_RETURN(BlockHeader h, ParseBlockHeader(input));
  std::string_view body = input.substr(h.body_offset);
  switch (h.kind) {
    case CompressionKind::kNone:
      if (body.size() != h.raw_size) {
        return Status::Corruption("stored block size mismatch");
      }
      return std::string(body);
    case CompressionKind::kLz:
      return LzDecompressImpl(body, h.raw_size);
    case CompressionKind::kColumnar: {
      // Byte-exact inverse: re-encode the columnar payload back to the
      // legacy serialization through the schema codec (the container's
      // schema byte names it).
      if (body.size() < kColumnarMinPayloadSize || !IsColumnarPayload(body)) {
        return Status::Corruption("columnar block: bad payload");
      }
      auto schema = static_cast<ValueSchema>(
          static_cast<unsigned char>(body[kColumnarMagicSize]));
      const ColumnarCodec* codec = LookupColumnarCodec(schema);
      if (codec == nullptr) {
        return Status::Corruption("columnar block: unknown schema");
      }
      HGS_ASSIGN_OR_RETURN(std::string raw, codec->reencode(body));
      if (raw.size() != h.raw_size) {
        return Status::Corruption("columnar block: size mismatch");
      }
      return raw;
    }
  }
  return Status::Corruption("unknown compression kind");
}

Result<SharedValue> DecompressShared(const SharedValue& stored) {
  std::string_view input = stored.view();
  HGS_ASSIGN_OR_RETURN(BlockHeader h, ParseBlockHeader(input));
  switch (h.kind) {
    case CompressionKind::kNone:
      if (input.size() - h.body_offset != h.raw_size) {
        return Status::Corruption("stored block size mismatch");
      }
      // Window past the header: same buffer, zero bytes moved.
      return stored.Window(h.body_offset, h.raw_size);
    case CompressionKind::kLz: {
      HGS_ASSIGN_OR_RETURN(
          std::string raw,
          LzDecompressImpl(input.substr(h.body_offset), h.raw_size));
      return SharedValue(std::move(raw));
    }
    case CompressionKind::kColumnar: {
      // Zero materialization: the columnar payload decodes by slicing
      // column views, so stripping the envelope is the whole job. The
      // payload carries its own checksum; the whole-value decoder verifies
      // it (and routes on the magic), keeping this window as cheap as the
      // kNone path.
      std::string_view body = input.substr(h.body_offset);
      if (body.size() < kColumnarMinPayloadSize || !IsColumnarPayload(body)) {
        return Status::Corruption("columnar block: bad payload");
      }
      return stored.Window(h.body_offset, body.size());
    }
  }
  return Status::Corruption("unknown compression kind");
}

}  // namespace hgs
