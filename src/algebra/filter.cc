#include "algebra/filter.h"

#include "common/check.h"

namespace wuw {

Rows FilterKernel::Run(const std::vector<const Rows*>& inputs,
                       OperatorStats* stats, ThreadPool* pool,
                       const CancelToken* cancel) const {
  WUW_CHECK(inputs.size() == 1, "FilterKernel takes exactly one input");
  return Filter(*inputs[0], predicate, stats, pool, cancel, &columns);
}

}  // namespace wuw
