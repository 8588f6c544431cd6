#include "common/columnar.h"

namespace hgs {

std::string ColumnarBlockWriter::Finish() const {
  BinaryWriter w;
  for (unsigned char c : kColumnarMagic) w.PutFixed8(c);
  w.PutFixed8(static_cast<uint8_t>(schema_));
  w.PutVarint64(columns_.size());
  for (const std::string& col : columns_) w.PutVarint64(col.size());
  for (const std::string& col : columns_) w.PutRaw(col);
  return w.FinishWithChecksum();
}

Result<ColumnarBlockReader> ColumnarBlockReader::Parse(
    std::string_view payload, ValueSchema expected_schema) {
  if (payload.size() < kColumnarMinPayloadSize || !IsColumnarPayload(payload)) {
    return Status::Corruption("columnar block: bad magic or truncated");
  }
  // The trailing checksum covers the whole container, so every parse error
  // past this point is genuine corruption, not a bit flip slipping through.
  BinaryReader r(payload);
  if (!r.VerifyChecksum().ok()) {
    return Status::Corruption("columnar block: checksum mismatch");
  }
  for (size_t i = 0; i < kColumnarMagicSize; ++i) r.ReadFixed8();  // magic
  uint8_t schema = r.ReadFixed8();
  if (r.failed() || schema != static_cast<uint8_t>(expected_schema)) {
    return Status::Corruption("columnar block: schema mismatch");
  }
  uint64_t ncols = r.ReadVarint64();
  if (r.failed() || ncols > r.remaining()) {
    return Status::Corruption("columnar block: bad column count");
  }
  std::vector<uint64_t> lens(ncols);
  uint64_t total = 0;
  for (uint64_t i = 0; i < ncols; ++i) {
    lens[i] = r.ReadVarint64();
    if (lens[i] > r.remaining() || total > r.remaining() - lens[i]) {
      return Status::Corruption("columnar block: column length overflow");
    }
    total += lens[i];
  }
  if (r.failed() || total != r.remaining()) {
    return Status::Corruption("columnar block: column lengths disagree");
  }
  ColumnarBlockReader out;
  out.columns_.reserve(ncols);
  size_t offset = payload.size() - kChecksumWireSize - total;
  for (uint64_t i = 0; i < ncols; ++i) {
    out.columns_.push_back(
        payload.substr(offset, static_cast<size_t>(lens[i])));
    offset += static_cast<size_t>(lens[i]);
  }
  return out;
}

}  // namespace hgs
