// Standalone validator for the BENCH_<name>.json files the bench binaries
// emit under --json. Exits 0 iff every given file matches the
// rdfql-bench-v3 (or v2) schema, 1 otherwise; with --expect-growth it
// additionally checks that the total_mappings work count grows with the
// single numeric size argument within each benchmark family (the
// empirical shadow of the Thm 7.1-7.4 scaling claims). Used by the
// `bench_json_smoke` ctest entry and by scripts/bench_json.sh.
//
// Usage: bench_json_check [--expect-growth] file.json [file2.json ...]

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_reporting.h"

int main(int argc, char** argv) {
  bool expect_growth = false;
  int checked = 0;
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--expect-growth") == 0) {
      expect_growth = true;
      continue;
    }
    ++checked;
    std::ifstream in(argv[i]);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open\n", argv[i]);
      ++failures;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    if (rdfql::bench::ValidateBenchJson(buf.str(), expect_growth, &error)) {
      std::printf("%s: OK\n", argv[i]);
    } else {
      std::fprintf(stderr, "%s: FAIL: %s\n", argv[i], error.c_str());
      ++failures;
    }
  }
  if (checked == 0) {
    std::fprintf(stderr,
                 "usage: bench_json_check [--expect-growth] file.json ...\n");
    return 2;
  }
  return failures == 0 ? 0 : 1;
}
