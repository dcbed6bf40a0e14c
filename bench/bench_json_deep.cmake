# A file of 200,000 '[' characters is not a bench document: the validator
# must exit 1 and bench_diff 2, each with a message, rather than die on a
# signal. The bench JSON reader recurses along the document's type, not
# along the input's nesting. The exit codes are compared here because
# WILL_FAIL would also pass on a crash.
if(NOT DEFINED CHECK OR NOT DEFINED DIFF OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "pass -DCHECK= -DDIFF= -DOUT_DIR=")
endif()

set(deep "${OUT_DIR}/BENCH_deep_nesting.json")
string(REPEAT "[" 200000 text)
file(WRITE "${deep}" "${text}")

# Runs ARGN and requires exit code `want` and a message naming the file.
function(expect_exit want)
  execute_process(COMMAND ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  list(JOIN ARGN " " command)
  if(NOT rc STREQUAL "${want}")
    message(FATAL_ERROR
            "${command}: exited with '${rc}', want ${want}\n${out}${err}")
  endif()
  if(NOT err MATCHES "BENCH_deep_nesting.json: .+")
    message(FATAL_ERROR "${command}: printed no error message:\n${err}")
  endif()
endfunction()

expect_exit(1 "${CHECK}" "${deep}")
expect_exit(2 "${DIFF}" "${deep}" "${deep}")
