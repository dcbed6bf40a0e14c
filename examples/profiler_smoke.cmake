# Sampling-profiler smoke test: a scripted shell session with the profiler
# running at ~1 kHz must write a folded-stack profile (--profile-out) in
# which every line is well-formed (`tag;tag;... COUNT`), at least one stack
# carries an evaluator operator tag (a sample landed mid-evaluation), and
# at least one frame is a wait state (`pool_queue_wait` / `lock_wait`) —
# the whole point of wait-state attribution. `.prof` must also render the
# hot-tag table mid-session.
#
# Sampling is probabilistic: a quiet scheduling run can miss the eval
# window, so the session retries up to 3 times before failing.
#
# Run as: cmake -DSHELL=<rdfql_shell> -DOUT_DIR=<scratch dir>
#               -P profiler_smoke.cmake
if(NOT DEFINED SHELL OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "pass -DSHELL=<rdfql_shell> -DOUT_DIR=<dir>")
endif()

set(folded "${OUT_DIR}/profiler_smoke.folded")

# A hub graph (200 spokes in, 200 out) makes (?x p ?y) AND (?y p ?z) a
# 40k-row hash join. Each spawned query is a MINUS of two such joins: the
# evaluator runs the two sides of a MINUS as two pool tasks, so the caller
# finishes one join and then blocks at the ParallelFor barrier while the
# other runs, and the MINUS itself is cheap (the sides share no variable,
# so the first right row removes each left row). Four spawned copies plus
# a foreground join against a 4-thread pool yield samples in evaluator
# frames, in pool_task frames and in pool_queue_wait. The join kernel is
# serial, and a UNION of the joins would not do: the shell collects
# metrics, and on that path a UNION evaluates its sides in turn.
set(script "")
foreach(i RANGE 1 200)
  string(APPEND script "triple g s${i} p h\n")
  string(APPEND script "triple g h p t${i}\n")
endforeach()
foreach(i RANGE 1 4)
  string(APPEND script
         "spawn g ((?x p ?y) AND (?y p ?z)) MINUS ((?a p ?b) AND (?b p ?c))\n")
endforeach()
string(APPEND script "query g (?x p ?y) AND (?y p ?z)\n")
string(APPEND script ".wait\n")
string(APPEND script ".prof 5\n")
string(APPEND script "quit\n")
file(WRITE "${OUT_DIR}/profiler_smoke_input.txt" "${script}")

set(ok FALSE)
foreach(attempt RANGE 1 3)
  file(REMOVE "${folded}")
  execute_process(
    COMMAND "${SHELL}" --no-cache --threads=4 --profile-hz=997
            --profile-out=${folded}
    INPUT_FILE "${OUT_DIR}/profiler_smoke_input.txt"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
    TIMEOUT 120)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "shell exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()

  # `.prof` rendered the hot-tag table mid-session.
  if(NOT out MATCHES "ticks=[0-9]+ samples=[0-9]+")
    message(FATAL_ERROR ".prof header missing:\n${out}")
  endif()

  if(NOT EXISTS "${folded}")
    message(FATAL_ERROR "--profile-out wrote nothing")
  endif()
  file(READ "${folded}" text)
  if(text STREQUAL "")
    message(FATAL_ERROR "folded profile is empty")
  endif()

  # Every line must be `stack COUNT` with a semicolon-joined, space-free
  # stack (tags are sanitized at intern time).
  # Tags contain `;` (the folded separator), which is also cmake's list
  # separator — lines cannot ride in a list, so validate the whole file
  # with one anchored regex: every line is `stack COUNT` with a space-free
  # stack (tags are sanitized at intern time).
  if(NOT text MATCHES "^([^ \n]+ [0-9]+\n)+$")
    message(FATAL_ERROR "malformed folded profile:\n${text}")
  endif()

  # Probabilistic assertions: an evaluator-op frame and a wait-state frame.
  set(ok TRUE)
  if(NOT text MATCHES "(AND|TRIPLE|Join)")
    set(ok FALSE)
  endif()
  if(NOT text MATCHES "(pool_queue_wait|lock_wait)")
    set(ok FALSE)
  endif()
  if(ok)
    break()
  endif()
  message(STATUS "attempt ${attempt}: sampler missed a window, retrying\n"
                 "${text}")
endforeach()

if(NOT ok)
  message(FATAL_ERROR
          "no attempt produced both an evaluator-op frame and a wait-state "
          "frame:\n${text}")
endif()
