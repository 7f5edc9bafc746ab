#include "plan/plan_node.h"

#include <sstream>

#include "common/check.h"
#include "expr/evaluator.h"
#include "expr/printer.h"

namespace wuw {
namespace {

const char* KindName(PlanNodeKind kind) {
  switch (kind) {
    case PlanNodeKind::kScanTable: return "scan";
    case PlanNodeKind::kScanDelta: return "dscan";
    case PlanNodeKind::kScanRows: return "rows";
    case PlanNodeKind::kFilter: return "filter";
    case PlanNodeKind::kProject: return "project";
    case PlanNodeKind::kHashJoin: return "join";
  }
  return "?";
}

std::string JoinKeysFingerprint(const JoinKeys& keys) {
  std::string out = "l=";
  for (const std::string& c : keys.left_columns) { out += c; out += ','; }
  out += ";r=";
  for (const std::string& c : keys.right_columns) { out += c; out += ','; }
  return out;
}

/// Resolves a node's kept positions among `width` input columns into
/// `*out` (null keeps them all) and returns the fingerprint suffix naming
/// them; a node that keeps every column gets none.
std::string KeepColumns(const std::vector<size_t>* columns, size_t width,
                        std::vector<size_t>* out) {
  out->resize(width);
  for (size_t c = 0; c < width; ++c) (*out)[c] = c;
  if (columns == nullptr || *columns == *out) return "";
  *out = *columns;
  std::string suffix = "|cols=";
  for (size_t c : *columns) {
    WUW_CHECK(c < width, "kept column out of range");
    suffix += std::to_string(c);
    suffix += ',';
  }
  return suffix;
}

}  // namespace

PlanNodeId PlanDag::InternTableScan(const std::string& name,
                                    const Table& table, int64_t version,
                                    int64_t epoch) {
  PlanNode n;
  n.kind = PlanNodeKind::kScanTable;
  n.schema = table.schema();
  n.table = &table;
  n.relation = name;
  n.input_rows = table.cardinality();
  // The (version, epoch) pair makes the key self-invalidating: Inst bumps
  // the extent version, a new change batch bumps the epoch.
  n.fingerprint = "scan:" + name + "@v" + std::to_string(version) + "#e" +
                  std::to_string(epoch);
  return Intern(std::move(n));
}

PlanNodeId PlanDag::InternDeltaScan(const std::string& name,
                                    const DeltaRelation& delta,
                                    int64_t epoch) {
  PlanNode n;
  n.kind = PlanNodeKind::kScanDelta;
  n.schema = delta.schema();
  n.delta = &delta;
  n.relation = name;
  n.input_rows = delta.AbsCardinality();
  n.fingerprint = "dscan:" + name + "#e" + std::to_string(epoch);
  return Intern(std::move(n));
}

PlanNodeId PlanDag::InternRowsScan(const Rows& rows) {
  PlanNode n;
  n.kind = PlanNodeKind::kScanRows;
  n.schema = rows.schema;
  n.rows = &rows;
  n.input_rows = rows.AbsCardinality();
  // Pointer identity only — two semantically equal batches at different
  // addresses must not unify, and nothing above this leaf may be cached.
  std::ostringstream fp;
  fp << "rows:@" << static_cast<const void*>(&rows);
  n.fingerprint = fp.str();
  n.cacheable = false;
  return Intern(std::move(n));
}

PlanNodeId PlanDag::InternFilter(PlanNodeId child, ScalarExpr::Ptr predicate,
                                 const std::vector<size_t>* columns) {
  const PlanNode& c = node(child);
  PlanNode n;
  n.kind = PlanNodeKind::kFilter;
  n.children = {child};
  const std::string kept =
      KeepColumns(columns, c.schema.num_columns(), &n.filter.columns);
  n.schema = c.schema.Project(n.filter.columns);
  n.cacheable = c.cacheable;
  n.fingerprint = "filter[" + ExprToSql(predicate) + kept + "](" +
                  c.fingerprint + ")";
  n.filter.predicate = std::move(predicate);
  return Intern(std::move(n));
}

PlanNodeId PlanDag::InternProject(PlanNodeId child,
                                  std::vector<ProjectItem> items) {
  const PlanNode& c = node(child);
  PlanNode n;
  n.kind = PlanNodeKind::kProject;
  n.children = {child};
  n.cacheable = c.cacheable;
  std::vector<Column> cols;
  std::string params;
  for (const ProjectItem& item : items) {
    cols.push_back(Column{
        item.name, BoundExpr::Bind(item.expr, c.schema).result_type()});
    params += ExprToSql(item.expr) + " AS " + item.name + ",";
  }
  n.schema = Schema(std::move(cols));
  n.fingerprint = "project[" + params + "](" + c.fingerprint + ")";
  n.project.items = std::move(items);
  return Intern(std::move(n));
}

PlanNodeId PlanDag::InternHashJoin(PlanNodeId left, PlanNodeId right,
                                   JoinKeys keys,
                                   const std::vector<size_t>* columns) {
  const PlanNode& l = node(left);
  const PlanNode& r = node(right);
  PlanNode n;
  n.kind = PlanNodeKind::kHashJoin;
  n.children = {left, right};
  const Schema concat = Schema::Concat(l.schema, r.schema);
  const std::string kept =
      KeepColumns(columns, concat.num_columns(), &n.join.columns);
  n.schema = concat.Project(n.join.columns);
  n.cacheable = l.cacheable && r.cacheable;
  n.fingerprint = "join[" + JoinKeysFingerprint(keys) + kept + "](" +
                  l.fingerprint + ")(" + r.fingerprint + ")";
  n.join.keys = std::move(keys);
  return Intern(std::move(n));
}

PlanNodeId PlanDag::Intern(PlanNode node) {
  auto it = by_fingerprint_.find(node.fingerprint);
  if (it != by_fingerprint_.end()) {
    // CSE hit: this exact subplan already exists; the new parent edge still
    // counts toward sharing.
    return it->second;
  }
  PlanNodeId id = static_cast<PlanNodeId>(nodes_.size());
  for (PlanNodeId child : node.children) {
    WUW_CHECK(child >= 0 && child < id, "plan children must precede parents");
    nodes_[child].num_uses += 1;
  }
  by_fingerprint_.emplace(node.fingerprint, id);
  nodes_.push_back(std::move(node));
  return id;
}

std::string PlanNodeLabel(const PlanNode& node) {
  std::string label;
  switch (node.kind) {
    case PlanNodeKind::kScanTable: label = "ScanTable"; break;
    case PlanNodeKind::kScanDelta: label = "ScanDelta"; break;
    case PlanNodeKind::kScanRows: label = "ScanRows"; break;
    case PlanNodeKind::kFilter: label = "Filter"; break;
    case PlanNodeKind::kProject: label = "Project"; break;
    case PlanNodeKind::kHashJoin: label = "HashJoin"; break;
  }
  if (!node.relation.empty()) label += "(" + node.relation + ")";
  return label;
}

std::string PlanDag::ToString() const {
  std::ostringstream out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const PlanNode& n = nodes_[i];
    out << "#" << i << " " << KindName(n.kind);
    if (!n.relation.empty()) out << " " << n.relation;
    if (!n.children.empty()) {
      out << " (";
      for (size_t c = 0; c < n.children.size(); ++c) {
        if (c > 0) out << ", ";
        out << "#" << n.children[c];
      }
      out << ")";
    }
    out << " uses=" << n.num_uses;
    if (!n.cacheable) out << " volatile";
    if (n.est_output_rows > 0) out << " est=" << n.est_output_rows;
    out << "\n";
  }
  return out.str();
}

}  // namespace wuw
