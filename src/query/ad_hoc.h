// Ad-hoc OLAP queries against the warehouse.
//
// The update window exists to serve readers: "during a warehouse update
// either OLAP queries are not processed or OLAP queries compete with the
// warehouse update for resources" (Section 1).  This module is the reader
// side — one-shot SELECT statements evaluated against the current
// materialized state, through the same parser and pipeline as view
// maintenance.
#ifndef WUW_QUERY_AD_HOC_H_
#define WUW_QUERY_AD_HOC_H_

#include <string>

#include "exec/warehouse.h"
#include "storage/read_snapshot.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace wuw {

/// A query answer: fully materialized rows sorted by tuple.  A plain table
/// rather than an operator batch (Rows), because nothing consumes it
/// downstream.
struct ResultRows {
  Schema schema;
  RowVec rows;  // multiplicities >= 1
};

/// Result of an ad-hoc query.
struct QueryResult {
  ResultRows rows;     // materialized, sorted result
  std::string error;   // non-empty on failure
  double seconds = 0;  // evaluation wall time

  bool ok() const { return error.empty(); }

  /// Render as an aligned text table (header + rows), for CLIs/examples.
  std::string ToText(size_t max_rows = 50) const;
};

/// Evaluates `sql` (a SELECT over the warehouse's views — base or derived,
/// including summary tables) against current state.  Aggregate queries
/// carry the hidden __count column like materialized aggregate views.
QueryResult ExecuteQuery(const Warehouse& warehouse, const std::string& sql);

/// Snapshot-isolated evaluation: same SELECT surface, but every source is
/// read from the pinned snapshot — safe concurrent with maintenance on the
/// owning warehouse (the zero-downtime read path).  Open the handle with
/// Warehouse::OpenSnapshot().
QueryResult ExecuteQuery(const ReadSnapshot& snapshot, const std::string& sql);

}  // namespace wuw

#endif  // WUW_QUERY_AD_HOC_H_
