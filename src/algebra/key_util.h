// In-place key hashing/equality over tuple column subsets.
//
// Joins and group-bys key on a few columns of every input row; projecting
// those columns into fresh key tuples would allocate per row.  These
// helpers hash and compare key columns in place instead, so the row-based
// WUW_MEM_MB spill routes of HashJoin / AggregateSigned touch only existing
// memory.
#ifndef WUW_ALGEBRA_KEY_UTIL_H_
#define WUW_ALGEBRA_KEY_UTIL_H_

#include <cstddef>
#include <vector>

#include "storage/tuple.h"

namespace wuw {

/// Hash of the key columns `idx` of `t` (same combining scheme as
/// Tuple::Hash so semantics stay uniform).
inline size_t KeyHash(const Tuple& t, const std::vector<size_t>& idx) {
  size_t h = 0x345678;
  for (size_t i : idx) {
    h ^= t.value(i).Hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

/// Column-wise equality of a's key `aidx` with b's key `bidx`.
inline bool KeysEqual(const Tuple& a, const std::vector<size_t>& aidx,
                      const Tuple& b, const std::vector<size_t>& bidx) {
  for (size_t i = 0; i < aidx.size(); ++i) {
    if (a.value(aidx[i]) != b.value(bidx[i])) return false;
  }
  return true;
}

}  // namespace wuw

#endif  // WUW_ALGEBRA_KEY_UTIL_H_
