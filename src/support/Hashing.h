//===- Hashing.h - Stable structural hashing --------------------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A 64-bit hasher whose output depends only on the values fed to it, in
/// order: no addresses, no `std::hash` (whose results are implementation-
/// defined), no seeds drawn per process. Uniqued IR storages and payload
/// fingerprints use it, and payload fingerprints persist in tuning-database
/// files, so a value computed by one build must be reproduced by every other
/// build on any host.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_SUPPORT_HASHING_H
#define TDL_SUPPORT_HASHING_H

#include <cstdint>
#include <cstring>
#include <string_view>

namespace tdl {

/// Order-sensitive accumulator: add() folds one 64-bit word into the state
/// with a MurmurHash3-style round, and get() applies the MurmurHash3 64-bit
/// finalizer. Byte strings are consumed eight bytes at a time, read
/// little-endian so the result does not depend on the host byte order.
class StableHasher {
public:
  StableHasher &add(uint64_t Word) {
    Word *= 0x87c37b91114253d5ull;
    Word = rotl(Word, 31);
    Word *= 0x4cf5ad432745937full;
    State ^= Word;
    State = rotl(State, 27) * 5 + 0x52dce729;
    return *this;
  }

  /// Length-prefixed, so adjacent strings cannot trade bytes.
  StableHasher &addBytes(std::string_view Bytes) {
    add(Bytes.size());
    const unsigned char *P =
        reinterpret_cast<const unsigned char *>(Bytes.data());
    size_t N = Bytes.size();
    for (; N >= 8; N -= 8, P += 8)
      add(loadLE(P, 8));
    if (N)
      add(loadLE(P, N));
    return *this;
  }

  uint64_t get() const {
    uint64_t H = State;
    H ^= H >> 33;
    H *= 0xff51afd7ed558ccdull;
    H ^= H >> 33;
    H *= 0xc4ceb9fe1a85ec53ull;
    H ^= H >> 33;
    return H;
  }

private:
  static uint64_t rotl(uint64_t X, unsigned R) {
    return (X << R) | (X >> (64 - R));
  }
  static uint64_t loadLE(const unsigned char *P, size_t N) {
    uint64_t Word = 0;
    for (size_t I = 0; I < N; ++I)
      Word |= static_cast<uint64_t>(P[I]) << (8 * I);
    return Word;
  }

  uint64_t State = 0x9e3779b97f4a7c15ull;
};

/// The bit pattern of \p Value: hashes distinguish every distinct double,
/// including -0.0 from 0.0, exactly as the uniquer keys do.
inline uint64_t doubleBits(double Value) {
  uint64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  return Bits;
}

} // namespace tdl

#endif // TDL_SUPPORT_HASHING_H
