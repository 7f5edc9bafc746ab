#include "algebra/project.h"

#include "algebra/vectorized.h"
#include "common/check.h"

namespace wuw {

Rows ProjectKernel::Run(const std::vector<const Rows*>& inputs,
                        OperatorStats* stats, ThreadPool* pool,
                        const CancelToken* cancel) const {
  WUW_CHECK(inputs.size() == 1, "ProjectKernel takes exactly one input");
  return Project(*inputs[0], items, stats, pool, cancel);
}

Rows Project(const Rows& input, const std::vector<ProjectItem>& items,
             OperatorStats* stats, ThreadPool* /*pool*/,
             const CancelToken* /*cancel*/) {
  return vec::TryProject(input, items, stats);
}

}  // namespace wuw
