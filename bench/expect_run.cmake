# One command as an e2e row with its outcome pinned: the exit status must
# equal STATUS exactly (a crash reports a signal name, so it cannot pass),
# and when LINE is given, one whole line of stdout must equal it. A plain
# add_test cannot ask for both: PASS_REGULAR_EXPRESSION replaces the
# exit-status check.
#
#   cmake -DBENCH=<binary> "-DARGS=<flags>" -DSTATUS=<n> ["-DLINE=<text>"]
#         -P expect_run.cmake
#
# ARGS is one space-separated string.

separate_arguments(BenchArgs UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BENCH}" ${BenchArgs}
  OUTPUT_VARIABLE Out
  ERROR_VARIABLE Err
  RESULT_VARIABLE Got)
get_filename_component(Command "${BENCH}" NAME)
string(APPEND Command " ${ARGS}")
if(NOT "${Got}" STREQUAL "${STATUS}")
  message(FATAL_ERROR "${Command}: exit ${Got}, want ${STATUS}\n${Out}${Err}")
endif()
if(DEFINED LINE)
  string(FIND "\n${Out}\n" "\n${LINE}\n" At)
  if(At EQUAL -1)
    message(FATAL_ERROR
      "${Command}: stdout lacks the line\n${LINE}\nstdout:\n${Out}")
  endif()
endif()
