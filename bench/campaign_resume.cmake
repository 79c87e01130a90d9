# The campaign shard-split + resume contract: one campaign bench run
# directly must print the same report as the same campaign split across two
# invocations over one fresh checkpoint directory, the second of them
# preempted after one shard and then resumed. Lines starting with
# "campaign" (the shard-progress banner and per-cell accounting) are the
# only ones allowed to differ. With EXPECT set, a last run diffs against
# the finished store with --diff-baseline and must print that line.
#
#   cmake -DBENCH=<bench binary> "-DARGS=<campaign flags>" -DDIR=<work dir>
#         [-DEXPECT=<line the diff-baseline run must print>]
#         -P campaign_resume.cmake
#
# ARGS is one space-separated string. DIR is deleted and recreated.

separate_arguments(BenchArgs UNIX_COMMAND "${ARGS}")
set(Store "${DIR}/ckpt")
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

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

run_bench(Direct)
run_bench(Unused --shards 2 --shard-index 0 --checkpoint-dir "${Store}")
run_bench(Unused --shards 2 --shard-index 1 --checkpoint-dir "${Store}"
          --max-shards 1)
run_bench(Split --shards 2 --shard-index 1 --checkpoint-dir "${Store}"
          --resume)

drop_campaign_lines(Direct "${Direct}")
drop_campaign_lines(Split "${Split}")
if(NOT Direct STREQUAL Split)
  file(WRITE "${DIR}/direct.txt" "${Direct}")
  file(WRITE "${DIR}/split.txt" "${Split}")
  message(FATAL_ERROR "the split + resumed campaign does not match the "
                      "direct run; compare ${DIR}/direct.txt and "
                      "${DIR}/split.txt")
endif()

if(DEFINED EXPECT)
  run_bench(Diff --diff-baseline "${Store}")
  string(FIND "\n${Diff}" "\n${EXPECT}\n" At)
  if(At EQUAL -1)
    message(FATAL_ERROR "--diff-baseline ${Store} did not print "
                        "\"${EXPECT}\":\n${Diff}")
  endif()
endif()
