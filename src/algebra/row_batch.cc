#include "algebra/row_batch.h"

#include <cstdlib>
#include <utility>

#include "common/check.h"

namespace wuw {

RowBatch RowBatch::Of(const ColumnTable& table, size_t begin, size_t end) {
  RowBatch b;
  b.source = &table;
  b.begin = begin;
  b.end = end;
  b.signed_card = table.SignedCardBetween(begin, end);
  b.abs_card = table.AbsCardBetween(begin, end);
#ifndef NDEBUG
  b.CheckCards();
#endif
  return b;
}

RowBatch RowBatch::Select(const RowBatch& base, std::vector<uint32_t> selected,
                          int64_t signed_card, int64_t abs_card) {
  RowBatch b;
  b.source = base.source;
  b.begin = base.begin;
  b.end = base.end;
  b.sel = std::move(selected);
  b.filtered = true;
  b.signed_card = signed_card;
  b.abs_card = abs_card;
#ifndef NDEBUG
  b.CheckCards();
#endif
  return b;
}

void RowBatch::CheckCards() const {
#ifndef NDEBUG
  const std::vector<int64_t>& mult = source->mult();
  int64_t s = 0, a = 0;
  for (size_t k = 0; k < size(); ++k) {
    int64_t m = mult[row(k)];
    s += m;
    a += std::llabs(m);
  }
  WUW_CHECK(s == signed_card, "RowBatch signed cardinality cache is stale");
  WUW_CHECK(a == abs_card, "RowBatch abs cardinality cache is stale");
#endif
}

}  // namespace wuw
