//===- Bits.h - C++17 bit-manipulation helpers ----------------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// popcount / countr_zero / countl_zero with the C++20 <bit> semantics,
/// usable from the project's C++17 baseline. Delegates to <bit> when
/// available, otherwise to compiler builtins.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_SUPPORT_BITS_H
#define CATS_SUPPORT_BITS_H

#include <cstdint>

#if defined(__has_include)
#if __has_include(<version>)
#include <version>
#endif
#endif
#if defined(__cpp_lib_bitops) && __cpp_lib_bitops >= 201907L
#include <bit>
#endif

namespace cats {

/// Number of set bits in \p Word.
inline unsigned popcount(uint64_t Word) {
#if defined(__cpp_lib_bitops) && __cpp_lib_bitops >= 201907L
  return static_cast<unsigned>(std::popcount(Word));
#else
  return static_cast<unsigned>(__builtin_popcountll(Word));
#endif
}

/// Number of trailing zero bits in \p Word; 64 when \p Word is 0.
inline unsigned countrZero(uint64_t Word) {
#if defined(__cpp_lib_bitops) && __cpp_lib_bitops >= 201907L
  return static_cast<unsigned>(std::countr_zero(Word));
#else
  return Word == 0 ? 64u : static_cast<unsigned>(__builtin_ctzll(Word));
#endif
}

/// Number of leading zero bits in \p Word; 64 when \p Word is 0.
inline unsigned countlZero(uint64_t Word) {
#if defined(__cpp_lib_bitops) && __cpp_lib_bitops >= 201907L
  return static_cast<unsigned>(std::countl_zero(Word));
#else
  return Word == 0 ? 64u : static_cast<unsigned>(__builtin_clzll(Word));
#endif
}

} // namespace cats

#endif // CATS_SUPPORT_BITS_H
