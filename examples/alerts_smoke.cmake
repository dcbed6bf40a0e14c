# Alerting smoke test: the whole loop on a scripted shell session. A
# fragment-scoped latency rule must move pending -> firing while an
# injected slow SPARQL[A] cross product runs, resolve once the workload
# stops and its observations age out of the rule's window, show up in
# `.alerts` and the rdfql_top panel, and leave a JSONL alert log that
# rdfql_stats --alerts aggregates. rdfql_top --no-color must emit plain
# frames (no ANSI escapes) for harnesses like this one.
#
# Run as: cmake -DSHELL=<rdfql_shell> -DSTATS=<rdfql_stats>
#               -DTOP=<rdfql_top> -DOUT_DIR=<scratch dir>
#               -P alerts_smoke.cmake
if(NOT DEFINED SHELL OR NOT DEFINED STATS OR NOT DEFINED TOP
   OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "pass -DSHELL= -DSTATS= -DTOP= -DOUT_DIR=")
endif()

set(rules "${OUT_DIR}/alerts_smoke_rules.json")
set(alert_log "${OUT_DIR}/alerts_smoke_alerts.jsonl")
set(telemetry "${OUT_DIR}/alerts_smoke_telemetry.json")
file(REMOVE "${alert_log}" "${telemetry}")

# One rule: the median SPARQL[A] latency over the last second must stay
# under 1 ms. The injected cross product takes far longer; ordinary
# triple-pattern queries are not SPARQL[A] and never touch the series.
file(WRITE "${rules}" "{\"version\":1,\"rules\":[
  {\"name\":\"and-slow\",\"agg\":\"p50\",\"metric\":\"engine.eval_ns\",
   \"fragment\":\"SPARQL[A]\",\"op\":\">\",\"threshold\":\"1ms\",
   \"windows\":[\"1s\"],\"severity\":\"page\"}]}\n")

# 60 disjoint p-edges: the 3-way cross product materializes 60^3 = 216000
# mappings — comfortably past 1 ms on any machine, finished in well under
# a second. `ask` evaluates every row, as `query` would, but prints one
# word, so the time between the observation and the first `.alerts` does
# not depend on how fast the shell prints 216000 rows.
set(script "")
foreach(i RANGE 1 60)
  string(APPEND script "triple g s${i} p o${i}\n")
endforeach()
string(APPEND script
       "ask g ((?a p ?x) AND ((?b p ?y) AND (?c p ?z)))\n")
# Let the 100 ms sampler tick a few times: record the latency into the
# history ring, evaluate the rule, fire it.
string(APPEND script ".sleep 500\n")
string(APPEND script ".alerts\n")
# Well-behaved traffic while the rule is firing (different fragment).
string(APPEND script "query g (?x p ?y)\n")
# Workload stops: after the observations age out of the 1 s window the
# rule must resolve on its own.
string(APPEND script ".sleep 1800\n")
string(APPEND script ".alerts\n")
string(APPEND script "quit\n")
file(WRITE "${OUT_DIR}/alerts_smoke_input.txt" "${script}")

execute_process(
  COMMAND "${SHELL}" --alert-rules=${rules} --alert-log=${alert_log}
          --telemetry-interval-ms=100 --telemetry-out=${telemetry}
  INPUT_FILE "${OUT_DIR}/alerts_smoke_input.txt"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
  TIMEOUT 120)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "shell exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

# First `.alerts`: the rule is firing with its fragment attributed.
# Second `.alerts`: it resolved once the workload stopped.
foreach(needle
        "firing +and-slow" "severity page" "fragment SPARQL\\[A\\]"
        "resolved +and-slow")
  if(NOT out MATCHES "${needle}")
    message(FATAL_ERROR "shell output missing `${needle}`:\n${out}")
  endif()
endforeach()

# The alert log carries the full lifecycle in order.
file(READ "${alert_log}" log_text)
if(NOT log_text MATCHES
   "\"state\":\"pending\".*\"state\":\"firing\".*\"state\":\"resolved\"")
  message(FATAL_ERROR
          "alert log missing pending->firing->resolved:\n${log_text}")
endif()
if(NOT log_text MATCHES "\"rule\":\"and-slow\"")
  message(FATAL_ERROR "alert log missing the rule name:\n${log_text}")
endif()

# rdfql_stats aggregates the log: one fire, one resolve, last state
# resolved.
execute_process(
  COMMAND "${STATS}" --alerts=${alert_log}
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rdfql_stats --alerts failed (${rc})\n${out}${err}")
endif()
foreach(needle
        "3 transition\\(s\\)" "firing=1" "resolved=1"
        "and-slow\\{SPARQL\\[A\\]\\}" "resolved")
  if(NOT out MATCHES "${needle}")
    message(FATAL_ERROR "stats alert report missing `${needle}`:\n${out}")
  endif()
endforeach()

# rdfql_top renders the final snapshot's alert panel, and --no-color frames
# carry no ANSI escapes.
execute_process(
  COMMAND "${TOP}" --once --no-color "${telemetry}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rdfql_top --once failed (${rc})\n${out}${err}")
endif()
foreach(needle "alerts \\(1 rule\\)" "and-slow")
  if(NOT out MATCHES "${needle}")
    message(FATAL_ERROR "rdfql_top frame missing `${needle}`:\n${out}")
  endif()
endforeach()
string(ASCII 27 esc)
string(FIND "${out}" "${esc}" esc_at)
if(NOT esc_at EQUAL -1)
  message(FATAL_ERROR "--no-color frame contains an ANSI escape:\n${out}")
endif()
