#include "parser/ddl_parser.h"

#include <vector>

#include "parser/sql_parser.h"
#include "parser/tokenizer.h"
#include "view/validate.h"

namespace wuw {

namespace {

/// Splits the script into ';'-terminated statements (quote-aware).
std::vector<std::string> SplitStatements(const std::string& sql) {
  std::vector<std::string> out;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < sql.size(); ++i) {
    char c = sql[i];
    if (c == '\'') in_quotes = !in_quotes;
    if (c == ';' && !in_quotes) {
      out.push_back(current);
      current.clear();
      continue;
    }
    // Strip -- comments outside quotes.
    if (!in_quotes && c == '-' && i + 1 < sql.size() && sql[i + 1] == '-') {
      while (i < sql.size() && sql[i] != '\n') ++i;
      continue;
    }
    current += c;
  }
  if (current.find_first_not_of(" \t\r\n") != std::string::npos) {
    out.push_back(current);
  }
  return out;
}

bool TypeFromName(const std::string& name, TypeId* out) {
  if (name == "INT" || name == "INTEGER" || name == "BIGINT") {
    *out = TypeId::kInt64;
    return true;
  }
  if (name == "DOUBLE" || name == "FLOAT" || name == "REAL" ||
      name == "DECIMAL" || name == "NUMERIC") {
    *out = TypeId::kDouble;
    return true;
  }
  if (name == "TEXT" || name == "VARCHAR" || name == "CHAR" ||
      name == "STRING") {
    *out = TypeId::kString;
    return true;
  }
  if (name == "DATE") {
    *out = TypeId::kDate;
    return true;
  }
  return false;
}

const char* TypeToDdl(TypeId t) {
  switch (t) {
    case TypeId::kInt64:
      return "INT";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kString:
      return "TEXT";
    case TypeId::kDate:
      return "DATE";
    case TypeId::kNull:
      break;
  }
  return "TEXT";
}

/// Parses "name (col TYPE, col TYPE, ...)" after CREATE TABLE.
bool ParseCreateTable(const std::vector<Token>& tokens, size_t pos,
                      std::string* name, std::vector<Column>* columns,
                      std::string* error) {
  auto expect = [&](TokenKind kind, const char* what) -> bool {
    if (tokens[pos].kind != kind) {
      *error = std::string("expected ") + what + " near offset " +
               std::to_string(tokens[pos].offset);
      return false;
    }
    return true;
  };
  if (!expect(TokenKind::kIdentifier, "table name")) return false;
  *name = tokens[pos].raw;
  ++pos;
  if (tokens[pos].kind != TokenKind::kSymbol || tokens[pos].text != "(") {
    *error = "expected '(' after table name";
    return false;
  }
  ++pos;
  while (true) {
    if (!expect(TokenKind::kIdentifier, "column name")) return false;
    std::string column = tokens[pos].raw;
    ++pos;
    if (!expect(TokenKind::kIdentifier, "column type")) return false;
    TypeId type;
    if (!TypeFromName(tokens[pos].text, &type)) {
      *error = "unknown column type: " + tokens[pos].raw;
      return false;
    }
    ++pos;
    // Swallow optional length suffix: VARCHAR(25).
    if (tokens[pos].kind == TokenKind::kSymbol && tokens[pos].text == "(") {
      ++pos;
      if (tokens[pos].kind == TokenKind::kInteger) ++pos;
      if (tokens[pos].kind != TokenKind::kSymbol || tokens[pos].text != ")") {
        *error = "malformed type length";
        return false;
      }
      ++pos;
    }
    columns->push_back(Column{column, type});
    if (tokens[pos].kind == TokenKind::kSymbol && tokens[pos].text == ",") {
      ++pos;
      continue;
    }
    break;
  }
  if (tokens[pos].kind != TokenKind::kSymbol || tokens[pos].text != ")") {
    *error = "expected ')' to close the column list";
    return false;
  }
  ++pos;
  if (tokens[pos].kind != TokenKind::kEnd) {
    *error = "trailing input after CREATE TABLE";
    return false;
  }
  return true;
}

}  // namespace

ParsedWarehouse ParseWarehouseScript(const std::string& sql) {
  ParsedWarehouse out;
  for (const std::string& statement : SplitStatements(sql)) {
    std::vector<Token> tokens;
    if (!Tokenize(statement, &tokens, &out.error)) return out;
    if (tokens.size() <= 1) continue;  // blank statement
    if (tokens[0].kind != TokenKind::kIdentifier ||
        tokens[0].text != "CREATE" || tokens.size() < 3 ||
        tokens[1].kind != TokenKind::kIdentifier) {
      out.error = "every statement must be CREATE TABLE / CREATE VIEW";
      return out;
    }
    if (tokens[1].text == "TABLE") {
      std::string name;
      std::vector<Column> columns;
      if (!ParseCreateTable(tokens, 2, &name, &columns, &out.error)) {
        return out;
      }
      if (out.vdag.HasView(name)) {
        out.error = "duplicate view: " + name;
        return out;
      }
      out.vdag.AddBaseView(name, Schema(std::move(columns)));
    } else if (tokens[1].text == "VIEW") {
      if (tokens[2].kind != TokenKind::kIdentifier) {
        out.error = "expected view name after CREATE VIEW";
        return out;
      }
      std::string name = tokens[2].raw;
      if (tokens.size() < 5 || tokens[3].kind != TokenKind::kIdentifier ||
          tokens[3].text != "AS") {
        out.error = "expected AS after the view name";
        return out;
      }
      if (out.vdag.HasView(name)) {
        out.error = "duplicate view: " + name;
        return out;
      }
      // Re-render the SELECT body from the raw statement via the AS
      // token's offset; pre-validate the FROM sources (the schema resolver
      // aborts on unknown views).
      std::string body = statement.substr(tokens[4].offset);
      for (const std::string& src : ExtractFromSources(body)) {
        if (!out.vdag.HasView(src)) {
          out.error = "view " + name + " references unknown source " + src;
          return out;
        }
      }
      auto resolver = [&](const std::string& src) -> const Schema& {
        return out.vdag.OutputSchema(src);
      };
      ParsedView parsed = ParseViewDefinition(name, body, resolver);
      if (!parsed.ok()) {
        out.error = "in view " + name + ": " + parsed.error;
        return out;
      }
      // Type-check before a later view resolves this one's output schema
      // (binding an ill-typed expression aborts).
      out.error = ValidateDefinition(*parsed.definition, resolver);
      if (!out.error.empty()) return out;
      out.vdag.AddDerivedView(parsed.definition);
    } else {
      out.error = "unsupported statement: CREATE " + tokens[1].raw;
      return out;
    }
  }
  return out;
}

std::string DumpWarehouseScript(const Vdag& vdag) {
  std::string out;
  for (const std::string& name : vdag.view_names()) {
    if (vdag.IsBaseView(name)) {
      out += "CREATE TABLE " + name + " (";
      const Schema& schema = vdag.OutputSchema(name);
      for (size_t i = 0; i < schema.num_columns(); ++i) {
        if (i > 0) out += ", ";
        out += schema.column(i).name;
        out += " ";
        out += TypeToDdl(schema.column(i).type);
      }
      out += ");\n";
    } else {
      out += "CREATE VIEW " + name + " AS " +
             vdag.definition(name)->ToString() + ";\n";
    }
  }
  return out;
}

}  // namespace wuw
