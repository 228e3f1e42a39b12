// Order-preserving key encodings and little fixed/varint codecs.
//
// UPI clusters its heap B+Tree on the composite key
//   (attribute value ASC, probability DESC, TupleID ASC)
// and relies on plain byte-wise comparison of encoded keys (the BerkeleyDB
// model). The encoders here guarantee that memcmp order on the encoded bytes
// equals the intended logical order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace upi {

// ---------------------------------------------------------------------------
// Fixed-width big-endian integers (memcmp order == numeric order).
// ---------------------------------------------------------------------------

void PutFixed32BE(std::string* dst, uint32_t v);
void PutFixed64BE(std::string* dst, uint64_t v);
uint32_t GetFixed32BE(const char* p);
uint64_t GetFixed64BE(const char* p);

// Little-endian fixed ints for page-internal structures (no ordering needs).
void PutFixed32(std::string* dst, uint32_t v);
uint32_t GetFixed32(const char* p);

// Varint32 for lengths inside pages / tuples.
void PutVarint32(std::string* dst, uint32_t v);
// Returns bytes consumed, or 0 on corruption.
size_t GetVarint32(const char* p, const char* limit, uint32_t* v);

// ---------------------------------------------------------------------------
// Order-preserving string encoding.
//
// Strings are terminated with 0x00 0x00 and embedded 0x00 bytes are escaped
// as 0x00 0xFF, so that "a" < "a\0" < "a\x01" < "ab" holds on the encoded
// bytes and the terminator can never be confused with payload.
// ---------------------------------------------------------------------------

void AppendOrderedString(std::string* dst, std::string_view s);
// Decodes an ordered string starting at *p (which must point inside [p,
// limit)). On success advances *p past the terminator and appends the decoded
// bytes to `out`.
Status DecodeOrderedString(const char** p, const char* limit, std::string* out);

// ---------------------------------------------------------------------------
// Order-preserving probability encoding (DESCENDING).
//
// Probabilities live in [0, 1]. We encode round((1 - p) * 2^30) as a
// big-endian uint32, so higher probability sorts first. 2^-30 resolution is
// far below anything the data model distinguishes.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kProbScale = 1u << 30;

void AppendProbDesc(std::string* dst, double p);
double DecodeProbDesc(const char* p);

/// Rounds a probability to the fixed-point grid used by AppendProbDesc.
/// Probability-bearing model objects (distributions, tuple existence)
/// quantize at construction so that serialize/deserialize round-trips are
/// exact and derived confidences (existence * prob) are reproducible — index
/// keys computed before and after a disk round-trip must match byte-for-byte.
double QuantizeProb(double p);

// ---------------------------------------------------------------------------
// Order-preserving doubles (for continuous attributes): flip the sign bit for
// non-negatives, all bits for negatives.
// ---------------------------------------------------------------------------

void AppendOrderedDouble(std::string* dst, double v);
double DecodeOrderedDouble(const char* p);

}  // namespace upi
