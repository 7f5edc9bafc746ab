#include "algebra/project.h"

#include "common/check.h"

namespace wuw {

Rows ProjectKernel::Run(const std::vector<const Rows*>& inputs,
                        OperatorStats* stats, ThreadPool* pool,
                        const CancelToken* cancel) const {
  WUW_CHECK(inputs.size() == 1, "ProjectKernel takes exactly one input");
  return Project(*inputs[0], items, stats, pool, cancel);
}

}  // namespace wuw
