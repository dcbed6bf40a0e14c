#include "algebra/result_io.h"

#include <algorithm>
#include <numeric>
#include <string_view>

#include "obs/metrics.h"

namespace rdfql {
namespace {

/// What both writers walk: the variables bound anywhere in the result, the
/// header order, and the rows in Mapping::operator< order. Rows are
/// pointers into the set, so nothing is copied.
struct ResultLayout {
  /// Bound variables in VarId order, the order of every mapping's bindings.
  std::vector<VarId> vars;
  /// names[c] is the name of vars[c].
  std::vector<const std::string*> names;
  /// Indices into vars, sorted by name: the header.
  std::vector<size_t> header;
  std::vector<const Mapping*> rows;
};

ResultLayout Layout(const MappingSet& result, const Dictionary& dict) {
  ResultLayout layout;
  std::vector<VarId>& vars = layout.vars;
  for (const Mapping& m : result) {
    for (const auto& [v, t] : m.bindings()) {
      auto it = std::lower_bound(vars.begin(), vars.end(), v);
      if (it == vars.end() || *it != v) vars.insert(it, v);
    }
  }
  for (VarId v : vars) layout.names.push_back(&dict.VarName(v));
  layout.header.resize(vars.size());
  std::iota(layout.header.begin(), layout.header.end(), size_t{0});
  std::sort(layout.header.begin(), layout.header.end(),
            [&layout](size_t a, size_t b) {
              return *layout.names[a] < *layout.names[b];
            });
  layout.rows.reserve(result.size());
  for (const Mapping& m : result) layout.rows.push_back(&m);
  std::sort(layout.rows.begin(), layout.rows.end(),
            [](const Mapping* a, const Mapping* b) { return *a < *b; });
  return layout;
}

/// Calls f(c, t) for each binding of `row`, where c is the binding's index
/// in `vars`. Both lists are in VarId order, so one cursor finds every
/// column.
template <typename F>
void ForEachCell(const Mapping& row, const std::vector<VarId>& vars, F&& f) {
  size_t c = 0;
  for (const auto& [v, t] : row.bindings()) {
    while (vars[c] != v) ++c;
    f(c, t);
  }
}

void AppendCsvEscaped(std::string_view value, std::string* out) {
  if (value.find_first_of(",\"\n\r") == std::string_view::npos) {
    out->append(value);
    return;
  }
  *out += '"';
  for (char c : value) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

}  // namespace

std::string WriteCsv(const MappingSet& result, const Dictionary& dict) {
  ResultLayout layout = Layout(result, dict);
  std::string out;
  for (size_t i = 0; i < layout.header.size(); ++i) {
    if (i > 0) out += ',';
    AppendCsvEscaped(*layout.names[layout.header[i]], &out);
  }
  out += '\n';
  // One row's value per column; null where the variable is unbound.
  std::vector<const std::string*> cells(layout.vars.size());
  for (const Mapping* row : layout.rows) {
    std::fill(cells.begin(), cells.end(), nullptr);
    ForEachCell(*row, layout.vars, [&](size_t c, TermId t) {
      cells[c] = &dict.IriName(t);
    });
    for (size_t i = 0; i < layout.header.size(); ++i) {
      if (i > 0) out += ',';
      if (const std::string* value = cells[layout.header[i]]) {
        AppendCsvEscaped(*value, &out);
      }
    }
    out += '\n';
  }
  return out;
}

std::string WriteResultsJson(const MappingSet& result,
                             const Dictionary& dict) {
  ResultLayout layout = Layout(result, dict);
  std::string out = "{\"head\":{\"vars\":[";
  for (size_t i = 0; i < layout.header.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    AppendJsonEscaped(*layout.names[layout.header[i]], &out);
    out += '"';
  }
  out += "]},\"results\":{\"bindings\":[";
  // Everything a cell writes before its value, once per column.
  std::vector<std::string> prefix(layout.vars.size());
  for (size_t c = 0; c < prefix.size(); ++c) {
    prefix[c] = '"';
    AppendJsonEscaped(*layout.names[c], &prefix[c]);
    prefix[c] += "\":{\"type\":\"iri\",\"value\":\"";
  }
  for (size_t r = 0; r < layout.rows.size(); ++r) {
    size_t row_start = out.size();
    out += r == 0 ? "{" : ",{";
    bool first_cell = true;
    ForEachCell(*layout.rows[r], layout.vars, [&](size_t c, TermId t) {
      if (!first_cell) out += ',';
      first_cell = false;
      out += prefix[c];
      AppendJsonEscaped(dict.IriName(t), &out);
      out += "\"}";
    });
    out += '}';
    if (r == 0) {
      // Size the rest after the first row, with a margin, so a large
      // answer is allocated about once instead of doubling its way up.
      size_t row_bytes = out.size() - row_start;
      out.reserve(out.size() + (layout.rows.size() - 1) * row_bytes * 5 / 4 +
                  4);
    }
  }
  out += "]}}";
  return out;
}

}  // namespace rdfql
