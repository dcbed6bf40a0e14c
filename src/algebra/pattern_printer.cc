#include "algebra/pattern_printer.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "util/check.h"

namespace rdfql {
namespace {

bool IsPlainWordChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '@' ||
         c == ':' || c == '+' || c == '-' || c == '/';
}

bool IsReservedWord(const std::string& s) {
  static const char* kReserved[] = {"AND",    "UNION", "OPT",   "MINUS",
                                    "FILTER", "SELECT", "WHERE", "NS",
                                    "bound",  "true",  "false", "CONSTRUCT"};
  for (const char* word : kReserved) {
    if (s == word) return true;
  }
  return false;
}

std::string TermToken(Term t, const Dictionary& dict) {
  if (t.is_var()) return "?" + dict.VarName(t.var());
  return IriToken(dict.IriName(t.iri()));
}

void Render(const Pattern& p, const Dictionary& dict, std::string* out) {
  switch (p.kind()) {
    case PatternKind::kTriple: {
      *out += "(" + TermToken(p.triple().s, dict) + " " +
              TermToken(p.triple().p, dict) + " " +
              TermToken(p.triple().o, dict) + ")";
      return;
    }
    case PatternKind::kUnion: {
      // UCQs and the UNION normal form build spines tens of thousands of
      // nodes deep: expand them on an explicit stack of pending nodes and
      // text, so only the disjuncts take a frame each.
      struct Item {
        const Pattern* node;
        const char* text;
      };
      std::vector<Item> work{{&p, nullptr}};
      while (!work.empty()) {
        Item item = work.back();
        work.pop_back();
        if (item.node == nullptr) {
          *out += item.text;
        } else if (item.node->kind() != PatternKind::kUnion) {
          Render(*item.node, dict, out);
        } else {
          *out += "(";
          work.push_back({nullptr, ")"});
          work.push_back({item.node->right().get(), nullptr});
          work.push_back({nullptr, " UNION "});
          work.push_back({item.node->left().get(), nullptr});
        }
      }
      return;
    }
    case PatternKind::kAnd:
    case PatternKind::kOpt:
    case PatternKind::kMinus: {
      const char* op = p.kind() == PatternKind::kAnd   ? "AND"
                       : p.kind() == PatternKind::kOpt ? "OPT"
                                                       : "MINUS";
      *out += "(";
      Render(*p.left(), dict, out);
      *out += " ";
      *out += op;
      *out += " ";
      Render(*p.right(), dict, out);
      *out += ")";
      return;
    }
    case PatternKind::kFilter: {
      *out += "(";
      Render(*p.child(), dict, out);
      *out += " FILTER ";
      *out += p.condition()->ToString(dict);
      *out += ")";
      return;
    }
    case PatternKind::kSelect: {
      *out += "(SELECT {";
      bool first = true;
      for (VarId v : p.projection()) {
        if (!first) *out += " ";
        first = false;
        *out += "?" + dict.VarName(v);
      }
      *out += "} WHERE ";
      Render(*p.child(), dict, out);
      *out += ")";
      return;
    }
    case PatternKind::kNs: {
      *out += "NS(";
      Render(*p.child(), dict, out);
      *out += ")";
      return;
    }
  }
}

}  // namespace

std::string IriToken(const std::string& iri) {
  bool plain = !iri.empty() && !IsReservedWord(iri);
  if (plain) {
    for (char c : iri) {
      if (!IsPlainWordChar(c)) {
        plain = false;
        break;
      }
    }
    // A bare token must not start like a variable/number punctuation.
    if (plain && (iri[0] == '?' || iri[0] == '<')) plain = false;
  }
  if (plain) return iri;
  return "<" + iri + ">";
}

std::string PatternToString(const PatternPtr& pattern,
                            const Dictionary& dict) {
  RDFQL_CHECK(pattern != nullptr);
  std::string out;
  Render(*pattern, dict, &out);
  return out;
}

std::string TriplePatternToString(const TriplePattern& t,
                                  const Dictionary& dict) {
  return "(" + TermToken(t.s, dict) + " " + TermToken(t.p, dict) + " " +
         TermToken(t.o, dict) + ")";
}

std::string ConstructToString(const std::vector<TriplePattern>& templ,
                              const PatternPtr& where,
                              const Dictionary& dict) {
  std::string out = "CONSTRUCT {";
  for (const TriplePattern& t : templ) {
    out += " " + TriplePatternToString(t, dict);
  }
  out += " } WHERE ";
  out += PatternToString(where, dict);
  return out;
}

std::string MappingTable(const MappingSet& result, const Dictionary& dict) {
  // Collect the column set (every variable bound anywhere in the result).
  std::set<VarId> var_set;
  for (const Mapping& m : result) {
    for (const auto& [v, t] : m.bindings()) var_set.insert(v);
  }
  std::vector<VarId> columns(var_set.begin(), var_set.end());
  std::sort(columns.begin(), columns.end(),
            [&dict](VarId a, VarId b) {
              return dict.VarName(a) < dict.VarName(b);
            });

  std::vector<std::vector<std::string>> rows;
  for (const Mapping& m : result) {
    std::vector<std::string> row;
    for (VarId v : columns) {
      std::optional<TermId> t = m.Get(v);
      row.push_back(t ? dict.IriName(*t) : "");
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());

  std::vector<std::string> header;
  for (VarId v : columns) header.push_back("?" + dict.VarName(v));

  std::vector<size_t> widths(columns.size(), 0);
  for (size_t c = 0; c < columns.size(); ++c) widths[c] = header[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto render_row = [&widths](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (size_t c = 0; c < cells.size(); ++c) {
      line += " " + cells[c];
      line += std::string(widths[c] - cells[c].size(), ' ');
      line += " |";
    }
    return line + "\n";
  };

  std::string out;
  if (columns.empty()) {
    // Results with only the empty mapping (or none at all).
    out += result.empty() ? "(no solutions)\n"
                          : "(the empty mapping, x" +
                                std::to_string(result.size()) + ")\n";
    return out;
  }
  out += render_row(header);
  std::string sep = "|";
  for (size_t c = 0; c < columns.size(); ++c) {
    sep += std::string(widths[c] + 2, '-') + "|";
  }
  out += sep + "\n";
  for (const auto& row : rows) out += render_row(row);
  return out;
}

}  // namespace rdfql
