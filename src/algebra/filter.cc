#include "algebra/filter.h"

#include "algebra/vectorized.h"
#include "common/check.h"

namespace wuw {

Rows FilterKernel::Run(const std::vector<const Rows*>& inputs,
                       OperatorStats* stats, ThreadPool* pool,
                       const CancelToken* cancel) const {
  WUW_CHECK(inputs.size() == 1, "FilterKernel takes exactly one input");
  return Filter(*inputs[0], predicate, stats, pool, cancel, &columns);
}

Rows Filter(const Rows& input, const ScalarExpr::Ptr& predicate,
            OperatorStats* stats, ThreadPool* /*pool*/,
            const CancelToken* /*cancel*/,
            const std::vector<size_t>* columns) {
  if (predicate == nullptr && columns == nullptr) return input;
  return vec::TryFilter(input,
                        predicate != nullptr ? predicate : ScalarExpr::True(),
                        stats, columns);
}

}  // namespace wuw
