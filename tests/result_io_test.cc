#include "algebra/result_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "eval/evaluator.h"
#include "parser/parser.h"
#include "workload/graph_generator.h"
#include "workload/university_generator.h"

namespace rdfql {
namespace {

// The writers as they were first written, kept as the byte-for-byte
// reference: copy and sort the rows, look every name up per cell, escape
// each value into a fresh string.
namespace reference {

std::vector<VarId> SortedColumns(const MappingSet& result,
                                 const Dictionary& dict) {
  std::set<VarId> vars;
  for (const Mapping& m : result) {
    for (const auto& [v, t] : m.bindings()) vars.insert(v);
  }
  std::vector<VarId> columns(vars.begin(), vars.end());
  std::sort(columns.begin(), columns.end(), [&dict](VarId a, VarId b) {
    return dict.VarName(a) < dict.VarName(b);
  });
  return columns;
}

std::vector<Mapping> SortedRows(const MappingSet& result) {
  std::vector<Mapping> rows = result.mappings();
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string CsvEscape(const std::string& value) {
  if (value.find_first_of(",\"\n\r") == std::string::npos) return value;
  std::string out = "\"";
  for (char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string JsonEscape(const std::string& value) {
  std::string out;
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string WriteCsv(const MappingSet& result, const Dictionary& dict) {
  std::vector<VarId> columns = SortedColumns(result, dict);
  std::string out;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out += ',';
    out += CsvEscape(dict.VarName(columns[c]));
  }
  out += '\n';
  for (const Mapping& m : SortedRows(result)) {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) out += ',';
      std::optional<TermId> t = m.Get(columns[c]);
      if (t.has_value()) out += CsvEscape(dict.IriName(*t));
    }
    out += '\n';
  }
  return out;
}

std::string WriteResultsJson(const MappingSet& result,
                             const Dictionary& dict) {
  std::vector<VarId> columns = SortedColumns(result, dict);
  std::string out = "{\"head\":{\"vars\":[";
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out += ',';
    out += '"' + JsonEscape(dict.VarName(columns[c])) + '"';
  }
  out += "]},\"results\":{\"bindings\":[";
  bool first_row = true;
  for (const Mapping& m : SortedRows(result)) {
    if (!first_row) out += ',';
    first_row = false;
    out += '{';
    bool first_cell = true;
    for (const auto& [v, t] : m.bindings()) {
      if (!first_cell) out += ',';
      first_cell = false;
      out += '"' + JsonEscape(dict.VarName(v)) +
             "\":{\"type\":\"iri\",\"value\":\"" +
             JsonEscape(dict.IriName(t)) + "\"}";
    }
    out += '}';
  }
  out += "]}}";
  return out;
}

}  // namespace reference

// Both writers against the reference, byte for byte.
void ExpectMatchesReference(const MappingSet& result, const Dictionary& dict,
                            const std::string& label) {
  EXPECT_EQ(WriteResultsJson(result, dict),
            reference::WriteResultsJson(result, dict))
      << label;
  EXPECT_EQ(WriteCsv(result, dict), reference::WriteCsv(result, dict))
      << label;
}

TEST(ResultIoReferenceTest, UniversityMixAnswersMatchByteForByte) {
  Dictionary dict;
  UniversitySpec spec;
  spec.num_universities = 2;
  Graph graph = GenerateUniversityGraph(spec, &dict);
  size_t rows = 0;
  for (const NamedUniversityQuery& q : UniversityQueryMix()) {
    Result<PatternPtr> pattern = ParsePattern(q.text, &dict);
    ASSERT_TRUE(pattern.ok()) << q.name;
    MappingSet answer = EvalPattern(graph, *pattern);
    rows += answer.size();
    ExpectMatchesReference(answer, dict, q.name);
  }
  EXPECT_GT(rows, 0u);
}

TEST(ResultIoReferenceTest, OptionalAnswerMatchesByteForByte) {
  // The opt_ns OPT query: half the people have no email, so rows differ in
  // domain.
  Dictionary dict;
  SocialGraphSpec spec;
  spec.num_people = 64;
  spec.email_probability = 0.5;
  Graph graph = GenerateSocialGraph(spec, &dict);
  Result<PatternPtr> pattern = ParsePattern(
      "((?x was_born_in ?c) AND (?x name ?n)) OPT (?x email ?e)", &dict);
  ASSERT_TRUE(pattern.ok());
  MappingSet answer = EvalPattern(graph, *pattern);
  ASSERT_GT(answer.size(), 0u);
  bool unbound_email = false;
  for (const Mapping& m : answer) unbound_email |= m.size() == 3;
  EXPECT_TRUE(unbound_email);
  ExpectMatchesReference(answer, dict, "opt");
}

class ResultIoTest : public ::testing::Test {
 protected:
  Mapping Make(std::vector<std::pair<std::string, std::string>> bindings) {
    std::vector<std::pair<VarId, TermId>> ids;
    for (const auto& [var, iri] : bindings) {
      ids.emplace_back(dict_.InternVar(var), dict_.InternIri(iri));
    }
    return Mapping::FromBindings(std::move(ids));
  }
  Dictionary dict_;
};

TEST_F(ResultIoTest, CsvBasic) {
  MappingSet r = MappingSet::FromList(
      {Make({{"x", "a"}, {"y", "b"}}), Make({{"x", "c"}})});
  EXPECT_EQ(WriteCsv(r, dict_), "x,y\na,b\nc,\n");
}

TEST_F(ResultIoTest, CsvEscaping) {
  MappingSet r = MappingSet::FromList(
      {Make({{"x", "has,comma"}, {"y", "has\"quote"}})});
  EXPECT_EQ(WriteCsv(r, dict_),
            "x,y\n\"has,comma\",\"has\"\"quote\"\n");
}

TEST_F(ResultIoTest, CsvEmptyResult) {
  MappingSet empty;
  EXPECT_EQ(WriteCsv(empty, dict_), "\n");
}

TEST_F(ResultIoTest, JsonBasic) {
  MappingSet r = MappingSet::FromList({Make({{"x", "a"}})});
  EXPECT_EQ(WriteResultsJson(r, dict_),
            "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":["
            "{\"x\":{\"type\":\"iri\",\"value\":\"a\"}}]}}");
}

TEST_F(ResultIoTest, JsonOmitsUnboundAndEscapes) {
  MappingSet r = MappingSet::FromList(
      {Make({{"x", "line\nbreak"}}), Make({{"x", "v"}, {"y", "w\\z"}})});
  std::string json = WriteResultsJson(r, dict_);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("w\\\\z"), std::string::npos);
  // The first row must not mention ?y at all.
  size_t first_obj = json.find("{\"x\"");
  size_t first_close = json.find('}', first_obj);
  EXPECT_EQ(json.substr(first_obj, first_close - first_obj).find("\"y\""),
            std::string::npos);
}

TEST_F(ResultIoTest, JsonEmptyResult) {
  MappingSet empty;
  EXPECT_EQ(WriteResultsJson(empty, dict_),
            "{\"head\":{\"vars\":[]},\"results\":{\"bindings\":[]}}");
}

TEST_F(ResultIoTest, HeadInNameOrderRowKeysInVarIdOrder) {
  // ?z is interned first, so it has the smaller VarId but the later name.
  MappingSet r = MappingSet::FromList({Make({{"z", "v1"}, {"a", "v2"}})});
  EXPECT_EQ(WriteResultsJson(r, dict_),
            "{\"head\":{\"vars\":[\"a\",\"z\"]},\"results\":{\"bindings\":["
            "{\"z\":{\"type\":\"iri\",\"value\":\"v1\"},"
            "\"a\":{\"type\":\"iri\",\"value\":\"v2\"}}]}}");
  EXPECT_EQ(WriteCsv(r, dict_), "a,z\nv2,v1\n");
  ExpectMatchesReference(r, dict_, "name order");
}

TEST_F(ResultIoTest, EmptyMappingRow) {
  // µ∅ sorts first and binds nothing.
  MappingSet r = MappingSet::FromList({Make({{"x", "a"}}), Mapping()});
  EXPECT_EQ(WriteResultsJson(r, dict_),
            "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":["
            "{},{\"x\":{\"type\":\"iri\",\"value\":\"a\"}}]}}");
  EXPECT_EQ(WriteCsv(r, dict_), "x\n\na\n");
  ExpectMatchesReference(r, dict_, "empty mapping");
}

TEST_F(ResultIoTest, EscapesControlCharactersQuotesAndBackslashes) {
  // Each special character also leads a value of its own, so it is the
  // first byte the writer has to escape. Rows sort by interning order.
  MappingSet r = MappingSet::FromList(
      {Make({{"x", "\x01"}}), Make({{"x", "\t"}}), Make({{"x", "\r"}}),
       Make({{"x", "\""}}), Make({{"x", "\\"}}),
       Make({{"x", "a\x01" "b\tc\rd\"e\\f"}})});
  auto row = [](const std::string& value) {
    return "{\"x\":{\"type\":\"iri\",\"value\":\"" + value + "\"}}";
  };
  EXPECT_EQ(WriteResultsJson(r, dict_),
            "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[" +
                row("\\u0001") + "," + row("\\t") + "," + row("\\r") + "," +
                row("\\\"") + "," + row("\\\\") + "," +
                row("a\\u0001b\\tc\\rd\\\"e\\\\f") + "]}}");
  EXPECT_EQ(WriteCsv(r, dict_),
            "x\n\x01\n\t\n\"\r\"\n\"\"\"\"\n\\\n"
            "\"a\x01" "b\tc\rd\"\"e\\f\"\n");
  ExpectMatchesReference(r, dict_, "escapes");
}

TEST_F(ResultIoTest, RowsAreSortedDeterministically) {
  MappingSet a = MappingSet::FromList({Make({{"x", "b"}}), Make({{"x", "a"}})});
  MappingSet b = MappingSet::FromList({Make({{"x", "a"}}), Make({{"x", "b"}})});
  EXPECT_EQ(WriteCsv(a, dict_), WriteCsv(b, dict_));
  EXPECT_EQ(WriteResultsJson(a, dict_), WriteResultsJson(b, dict_));
}

}  // namespace
}  // namespace rdfql
