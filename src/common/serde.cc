#include "common/serde.h"

namespace hgs {

uint64_t Fnv1a64(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xCBF29CE484222325ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

void BinaryWriter::PutVarint64(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  buf_.push_back(static_cast<char>(v));
}

void BinaryWriter::PutSigned64(int64_t v) {
  // zigzag
  PutVarint64((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
}

void BinaryWriter::PutFixed64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>(v & 0xFF));
    v >>= 8;
  }
}

void BinaryWriter::PutString(std::string_view s) {
  PutVarint64(s.size());
  buf_.append(s.data(), s.size());
}

std::string BinaryWriter::FinishWithChecksum() {
  uint64_t sum = Fnv1a64(buf_.data(), buf_.size());
  PutFixed64(sum);
  std::string out;
  out.swap(buf_);
  return out;
}

std::string BinaryWriter::Finish() {
  std::string out;
  out.swap(buf_);
  return out;
}

Status BinaryReader::VerifyChecksum() {
  if (data_.size() < 8) {
    return Status::Corruption("buffer too small for checksum");
  }
  size_t body = data_.size() - 8;
  uint64_t stored = 0;
  for (int i = 7; i >= 0; --i) {
    stored = (stored << 8) |
             static_cast<unsigned char>(data_[body + static_cast<size_t>(i)]);
  }
  uint64_t actual = Fnv1a64(data_.data(), body);
  if (stored != actual) {
    return Status::Corruption("checksum mismatch");
  }
  data_ = data_.substr(0, body);
  return Status::OK();
}

uint64_t BinaryReader::ReadVarint64() {
  if (failed_) return 0;
  const size_t n = data_.size();
  uint64_t v = 0;
  int shift = 0;
  size_t p = pos_;
  while (p < n) {
    uint8_t byte = static_cast<unsigned char>(data_[p++]);
    if (shift >= 63 && byte > 1) {
      failed_ = true;
      return 0;
    }
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if (!(byte & 0x80)) {
      pos_ = p;
      return v;
    }
    shift += 7;
  }
  failed_ = true;  // ran off the buffer mid-varint
  return 0;
}

std::string_view BinaryReader::ReadBytesView() {
  uint64_t len = ReadVarint64();
  if (failed_ || remaining() < len) {
    failed_ = true;
    return {};
  }
  std::string_view out = data_.substr(pos_, len);
  pos_ += len;
  return out;
}

}  // namespace hgs
