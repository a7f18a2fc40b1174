#ifndef T3_COMMON_HASH_H_
#define T3_COMMON_HASH_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace t3 {

/// Deterministic, platform-independent hashing used wherever hashes feed
/// reproducible results: datagen stream seeding, content checksums, the NDV
/// sketch. Not seeded and not DoS-hardened on purpose — stability across
/// runs, platforms, and compilers is the point.

inline constexpr uint64_t kFnv64Offset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv64Prime = 0x100000001b3ULL;

/// Streaming FNV-1a 64. Start from kFnv64Offset and fold in bytes/values;
/// order-sensitive.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= kFnv64Prime;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  /// Length-prefixed, so ("a,", "b") and ("a", ",b") hash differently.
  void LengthPrefixedString(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  /// NUL-terminated (cheap separator for fixed component sequences).
  void CString(const std::string& s) { Bytes(s.data(), s.size() + 1); }

  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = kFnv64Offset;
};

/// SplitMix64 finalizer: a strong 64->64 bit mixer (also the seeding
/// expansion of Rng). Use to whiten structured integers before comparing
/// hash magnitudes (e.g. the KMV NDV sketch).
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace t3

#endif  // T3_COMMON_HASH_H_
