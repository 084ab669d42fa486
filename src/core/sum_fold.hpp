// Exact, order-independent fold for float-sum programs (DESIGN.md §11).
//
// A float fold `acc = acc + m` rounds after every addition, so its result
// depends on the order messages arrive in — and under the actor scheduler
// that order is the schedule's, not the program's. Programs whose compute
// is a non-negative float sum (Program::float_sum_fold) are instead folded
// in signed 64-bit fixed point with kSumFoldFractionBits fraction bits:
// each message converts to an integer, integer addition is associative,
// and the superstep's total converts back to float once. The result is
// bit-identical for every arrival order, worker count and actor shape.
//
// Format Q7.56 (DESIGN.md §11 derives it): values below 2^7 fit (the
// PageRank family's per-vertex mass is at most 1), and every float32
// message of at least 2^-33 converts exactly; smaller ones round to the
// nearest 2^-56. A message or total of 2^7 or more, or a non-finite one,
// throws std::overflow_error — the fold never wraps.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "storage/slot.hpp"

namespace gpsa {

using FixedSum = std::int64_t;

inline constexpr int kSumFoldFractionBits = 56;

/// Converts a non-negative float payload to Q7.56, rounding half up below
/// the 2^-56 resolution. Throws std::overflow_error at 2^7 and above.
inline FixedSum payload_to_fixed(Payload payload) {
  const std::uint32_t bits = payload & kPayloadMask;
  const int biased_exp = static_cast<int>(bits >> 23);
  if (biased_exp == 0xff) {
    throw std::overflow_error("sum fold: non-finite float message");
  }
  // value = mantissa * 2^(e - 150); subnormals share e = 1 without the
  // implicit bit. In Q7.56 units that is mantissa * 2^(e - 150 + 56).
  const std::uint64_t mantissa =
      (bits & 0x7fffffU) | (biased_exp == 0 ? 0U : 0x800000U);
  const int shift = (biased_exp == 0 ? 1 : biased_exp) - 150 +
                    kSumFoldFractionBits;
  if (shift >= 0) {
    // A 24-bit mantissa shifted by 40 or more reaches 2^63.
    if (shift >= 40) {
      throw std::overflow_error("sum fold: message of 2^7 or more");
    }
    return static_cast<FixedSum>(mantissa << shift);
  }
  const int right = -shift;
  if (right > 24) {
    return 0;  // below half the resolution even after rounding
  }
  return static_cast<FixedSum>((mantissa + (std::uint64_t{1} << (right - 1))) >>
                               right);
}

/// Adds `message` into `sum`; throws std::overflow_error instead of
/// wrapping once the total reaches 2^7.
inline void fixed_sum_add(FixedSum& sum, FixedSum message) {
  if (__builtin_add_overflow(sum, message, &sum)) {
    throw std::overflow_error("sum fold: accumulator overflow (2^7 or more)");
  }
}

/// The correctly rounded float of a non-negative Q7.56 total: the int64 ->
/// float conversion rounds once, and scaling by 2^-56 is exact because
/// every nonzero total is at least 2^-56, a normal float.
inline Payload fixed_to_payload(FixedSum sum) {
  return float_to_payload(static_cast<float>(sum) * 0x1p-56F);
}

}  // namespace gpsa
