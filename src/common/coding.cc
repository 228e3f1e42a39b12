#include "common/coding.h"

#include <cmath>
#include <cstring>

namespace upi {

void PutFixed32BE(std::string* dst, uint32_t v) {
  char buf[4] = {static_cast<char>(v >> 24), static_cast<char>(v >> 16),
                 static_cast<char>(v >> 8), static_cast<char>(v)};
  dst->append(buf, 4);
}

void PutFixed64BE(std::string* dst, uint64_t v) {
  PutFixed32BE(dst, static_cast<uint32_t>(v >> 32));
  PutFixed32BE(dst, static_cast<uint32_t>(v));
}

uint32_t GetFixed32BE(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return (uint32_t{u[0]} << 24) | (uint32_t{u[1]} << 16) | (uint32_t{u[2]} << 8) |
         uint32_t{u[3]};
}

uint64_t GetFixed64BE(const char* p) {
  return (uint64_t{GetFixed32BE(p)} << 32) | GetFixed32BE(p + 4);
}

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

uint32_t GetFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void PutVarint32(std::string* dst, uint32_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

size_t GetVarint32(const char* p, const char* limit, uint32_t* v) {
  uint32_t result = 0;
  int shift = 0;
  const char* q = p;
  while (q < limit && shift <= 28) {
    uint8_t byte = static_cast<uint8_t>(*q++);
    result |= uint32_t{static_cast<uint8_t>(byte & 0x7F)} << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return static_cast<size_t>(q - p);
    }
    shift += 7;
  }
  return 0;
}

void AppendOrderedString(std::string* dst, std::string_view s) {
  for (char c : s) {
    if (c == '\0') {
      dst->push_back('\0');
      dst->push_back('\xFF');
    } else {
      dst->push_back(c);
    }
  }
  dst->push_back('\0');
  dst->push_back('\0');
}

Status DecodeOrderedString(const char** p, const char* limit, std::string* out) {
  const char* q = *p;
  while (q < limit) {
    if (*q != '\0') {
      out->push_back(*q++);
      continue;
    }
    if (q + 1 >= limit) return Status::Corruption("truncated ordered string");
    char next = q[1];
    if (next == '\0') {  // terminator
      *p = q + 2;
      return Status::OK();
    }
    if (next == '\xFF') {  // escaped NUL
      out->push_back('\0');
      q += 2;
      continue;
    }
    return Status::Corruption("bad ordered-string escape");
  }
  return Status::Corruption("unterminated ordered string");
}

void AppendProbDesc(std::string* dst, double p) {
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  uint32_t scaled = static_cast<uint32_t>(std::llround((1.0 - p) * kProbScale));
  PutFixed32BE(dst, scaled);
}

double DecodeProbDesc(const char* p) {
  uint32_t scaled = GetFixed32BE(p);
  return 1.0 - static_cast<double>(scaled) / kProbScale;
}

double QuantizeProb(double p) {
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  uint32_t scaled = static_cast<uint32_t>(std::llround((1.0 - p) * kProbScale));
  return 1.0 - static_cast<double>(scaled) / kProbScale;
}

void AppendOrderedDouble(std::string* dst, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  if (bits & (uint64_t{1} << 63)) {
    bits = ~bits;  // negative: flip everything
  } else {
    bits |= (uint64_t{1} << 63);  // non-negative: flip sign bit
  }
  PutFixed64BE(dst, bits);
}

double DecodeOrderedDouble(const char* p) {
  uint64_t bits = GetFixed64BE(p);
  if (bits & (uint64_t{1} << 63)) {
    bits &= ~(uint64_t{1} << 63);
  } else {
    bits = ~bits;
  }
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

}  // namespace upi
