// Former names of the stage-parallel executor.  Staged runs go through
// Executor::Execute(const ParallelStrategy&) (exec/executor.h), which
// shares one loop with sequential and resumed runs; these aliases keep
// code written against the old names compiling.
#ifndef WUW_EXEC_PARALLEL_EXECUTOR_H_
#define WUW_EXEC_PARALLEL_EXECUTOR_H_

#include "exec/executor.h"

namespace wuw {

using ParallelExecutor = Executor;
using ParallelExecutorOptions = ExecutorOptions;
using ParallelExecutionReport = ExecutionReport;

}  // namespace wuw

#endif  // WUW_EXEC_PARALLEL_EXECUTOR_H_
