#include "view/maintenance.h"

#include "common/check.h"
#include "delta/summary_delta.h"

namespace wuw {

DeltaAccumulator::DeltaAccumulator(std::shared_ptr<const ViewDefinition> def,
                                   Schema raw_schema, Schema output_schema)
    : def_(std::move(def)),
      raw_schema_(std::move(raw_schema)),
      output_schema_(std::move(output_schema)),
      raw_(raw_schema_) {}

void DeltaAccumulator::Accumulate(Rows raw) {
  std::lock_guard<std::mutex> lock(mutex_);
  WUW_CHECK(!finalized_,
            "Comp after delta finalization: the strategy violates C4/C8");
  // mutable_rows() unshares raw's block first, so moving tuples out of it
  // can never disturb another holder.
  RowVec& moved = raw.mutable_rows();
  RowVec& into = raw_.mutable_rows();
  into.insert(into.end(), std::make_move_iterator(moved.begin()),
              std::make_move_iterator(moved.end()));
}

const DeltaRelation& DeltaAccumulator::Finalize(const Table& current,
                                                OperatorStats* stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finalized_) return final_;
  if (def_->is_aggregate()) {
    final_ = FinalizeAggregateDelta(*def_, current, raw_, stats);
  } else {
    final_ = FinalizeSpjDelta(output_schema_, raw_, stats);
  }
  finalized_ = true;
  raw_ = Rows(raw_schema_);  // release memory
  return final_;
}

void DeltaAccumulator::RestoreFinalized(DeltaRelation final_delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  WUW_CHECK(!finalized_, "RestoreFinalized over a live finalized delta");
  final_ = std::move(final_delta);
  finalized_ = true;
  raw_ = Rows(raw_schema_);
}

void DeltaAccumulator::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  raw_ = Rows(raw_schema_);
  finalized_ = false;
  final_ = DeltaRelation(output_schema_);
}

}  // namespace wuw
