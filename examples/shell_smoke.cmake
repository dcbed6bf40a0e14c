# Scripted-stdin smoke test for rdfql_shell: malformed commands, a deeply
# nested pattern and an unknown command must each print an error while the
# REPL stays alive — the session still answers the final query and exits 0.
# Then `json`, `csv` and `ask` run one pattern twice, a cold result-cache
# miss and a warm hit that serialize the cached answer in place, and once
# more after an insert replaces that answer's cache slot; every byte they
# print is checked (under ASan in CI, this covers the shared answer's
# lifetime). Last, a `triple` while a `spawn`ed job is still unjoined must
# land at once: the job reads the graph version it pinned, so its row count
# is that of the graph before or after the insert, and a later `csv` lists
# both Peru rows. Under a sanitizer build this runs a write beside a read.
#
# Run as: cmake -DSHELL=<path to rdfql_shell> -DOUT_DIR=<scratch dir>
#               -P shell_smoke.cmake
if(NOT DEFINED SHELL OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "pass -DSHELL=<rdfql_shell> -DOUT_DIR=<scratch dir>")
endif()

# A pattern nested far past the parser's depth limit: the guard must turn
# it into a parse error instead of a stack overflow.
string(REPEAT "(" 100000 OPEN)
string(REPEAT ")" 100000 CLOSE)

set(lines
  "triple g Juan was_born_in Chile"
  "triple g Ana was_born_in Chile"
  "query g this is ( not a pattern"
  "frobnicate g (?x was_born_in ?c)"
  "query g ${OPEN}(?x was_born_in ?c)${CLOSE}"
  "query nosuchgraph (?x was_born_in ?c)"
  "query g (?x was_born_in ?c)"
  "json g (?x was_born_in Chile)"
  "csv g (?x was_born_in Chile)"
  "ask g (?x was_born_in Chile)"
  "json g (?x was_born_in Chile)"
  "csv g (?x was_born_in Chile)"
  "ask g (?x was_born_in Chile)"
  "triple g Pedro was_born_in Chile"
  "json g (?x was_born_in Chile)"
  "spawn g (?x was_born_in ?c)"
  "triple g Lucia was_born_in Peru"
  ".wait"
  "triple g Maria was_born_in Peru"
  "csv g (?x was_born_in Peru)"
  "quit")
string(JOIN "\n" script ${lines})
file(WRITE "${OUT_DIR}/shell_smoke_input.txt" "${script}\n")

execute_process(
  COMMAND "${SHELL}" --timeout-ms=10000 --max-mb=512
  INPUT_FILE "${OUT_DIR}/shell_smoke_input.txt"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)

if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "shell exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT out MATCHES "error:")
  message(FATAL_ERROR "expected at least one `error:` line\n${out}")
endif()
if(NOT out MATCHES "nesting too deep")
  message(FATAL_ERROR "expected the deep-nesting parse error\n${out}")
endif()
if(NOT out MATCHES "unknown command: frobnicate")
  message(FATAL_ERROR "expected the unknown-command error\n${out}")
endif()
if(NOT out MATCHES "no graph named")
  message(FATAL_ERROR "expected the missing-graph error\n${out}")
endif()
# The REPL must still answer the final query after all of the above.
if(NOT out MATCHES "Juan")
  message(FATAL_ERROR "expected results from the final query\n${out}")
endif()

set(json_before
    "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[{\"x\":{\"type\":\"iri\",\"value\":\"Juan\"}},{\"x\":{\"type\":\"iri\",\"value\":\"Ana\"}}]}}")
set(json_after
    "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[{\"x\":{\"type\":\"iri\",\"value\":\"Juan\"}},{\"x\":{\"type\":\"iri\",\"value\":\"Ana\"}},{\"x\":{\"type\":\"iri\",\"value\":\"Pedro\"}}]}}")
set(answers "${json_before}\nx\nJuan\nAna\nyes\n")
set(expected "${answers}${answers}ok\n${json_after}\n")
string(FIND "${out}" "${expected}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
          "expected the json/csv/ask answers, exactly:\n${expected}\n"
          "got:\n${out}")
endif()

# A write beside a running job: the insert prints `ok` before `.wait`, the
# job sees one version (3 rows before the insert, 4 after), and both Peru
# rows land.
set(jobs_pattern
    "job 1 spawned\nok\njob 1: ok rows=[34]  # \\(\\?x was_born_in \\?c\\)\nok\nx\nLucia\nMaria\n")
if(NOT out MATCHES "${jobs_pattern}")
  message(FATAL_ERROR
          "expected a write beside the spawned job, matching:\n${jobs_pattern}\n"
          "got:\n${out}")
endif()
