#include "query/ad_hoc.h"

#include <algorithm>
#include <chrono>

#include "parser/sql_parser.h"
#include "view/recompute.h"
#include "view/validate.h"

namespace wuw {

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string QueryResult::ToText(size_t max_rows) const {
  if (!ok()) return "error: " + error;
  // Column widths from header and visible rows.
  std::vector<size_t> widths;
  for (const Column& c : rows.schema.columns()) {
    widths.push_back(c.name.size());
  }
  size_t shown = std::min(max_rows, rows.rows.size());
  std::vector<std::vector<std::string>> cells;
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < rows.schema.num_columns(); ++c) {
      row.push_back(rows.rows[r].first.value(c).ToString());
      widths[c] = std::max(widths[c], row.back().size());
    }
    cells.push_back(std::move(row));
  }
  auto pad = [](const std::string& s, size_t w) {
    return s + std::string(w - s.size(), ' ');
  };
  std::string out;
  for (size_t c = 0; c < widths.size(); ++c) {
    out += (c ? " | " : "") + pad(rows.schema.column(c).name, widths[c]);
  }
  out += "\n";
  for (size_t c = 0; c < widths.size(); ++c) {
    out += (c ? "-+-" : "") + std::string(widths[c], '-');
  }
  out += "\n";
  for (const auto& row : cells) {
    for (size_t c = 0; c < widths.size(); ++c) {
      out += (c ? " | " : "") + pad(row[c], widths[c]);
    }
    out += "\n";
  }
  if (rows.rows.size() > shown) {
    out += "... (" + std::to_string(rows.rows.size() - shown) + " more)\n";
  }
  out += "(" + std::to_string(rows.rows.size()) + " rows)\n";
  return out;
}

namespace {

/// Shared tail of both overloads: parse against `schema_of`, evaluate
/// against `source`, sort for deterministic output.
QueryResult RunParsedQuery(
    const std::string& sql,
    const std::function<const Schema&(const std::string&)>& schema_of,
    const TableSource& source) {
  QueryResult result;
  ParsedView parsed = ParseViewDefinition("__adhoc", sql, schema_of);
  if (!parsed.ok()) {
    result.error = parsed.error;
    return result;
  }
  // Type errors come back as strings; the kernels would abort on them.
  result.error = ValidateDefinition(*parsed.definition, schema_of);
  if (!result.ok()) return result;
  double start = Now();
  Table table = RecomputeView(*parsed.definition, source, nullptr);
  result.seconds = Now() - start;
  result.rows.schema = table.schema();
  // Deterministic output order.
  result.rows.rows = table.SortedRows();
  return result;
}

}  // namespace

QueryResult ExecuteQuery(const Warehouse& warehouse, const std::string& sql) {
  const Vdag& vdag = warehouse.vdag();
  for (const std::string& src : ExtractFromSources(sql)) {
    if (!vdag.HasView(src)) {
      QueryResult result;
      result.error = "unknown view: " + src;
      return result;
    }
  }
  const Catalog& catalog = warehouse.catalog();
  return RunParsedQuery(
      sql,
      [&](const std::string& name) -> const Schema& {
        return vdag.OutputSchema(name);
      },
      [&catalog](const std::string& name) -> const Table& {
        return *catalog.MustGetTable(name);
      });
}

QueryResult ExecuteQuery(const ReadSnapshot& snapshot,
                         const std::string& sql) {
  for (const std::string& src : ExtractFromSources(sql)) {
    if (!snapshot.has_table(src)) {
      QueryResult result;
      result.error = "unknown view: " + src;
      return result;
    }
  }
  return RunParsedQuery(
      sql,
      [&](const std::string& name) -> const Schema& {
        return snapshot.table(name)->schema();
      },
      [&](const std::string& name) -> const Table& {
        return *snapshot.table(name);
      });
}

}  // namespace wuw
