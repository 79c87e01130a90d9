# Helpers shared by the bench contracts (campaign_resume.cmake,
# campaign_incremental.cmake, corpus_replay.cmake, daemon_cold_warm.cmake).
# The including script defines BENCH (the bench binary) and may define ARGS
# (one space-separated string of the flags every run shares).

separate_arguments(BenchArgs UNIX_COMMAND "${ARGS}")

# Runs the bench with the shared flags plus ARGN; stores stdout in Var.
function(run_bench Var)
  execute_process(
    COMMAND "${BENCH}" ${BenchArgs} ${ARGN}
    OUTPUT_VARIABLE Out
    RESULT_VARIABLE Status)
  if(NOT Status EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${ARGS} ${ARGN} failed: ${Status}\n${Out}")
  endif()
  set(${Var} "${Out}" PARENT_SCOPE)
endfunction()

# Drops every line that starts with "campaign".
function(drop_campaign_lines Var Text)
  string(REGEX REPLACE "\ncampaign[^\n]*" "" Kept "\n${Text}")
  set(${Var} "${Kept}" PARENT_SCOPE)
endfunction()
