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

include(${CMAKE_CURRENT_LIST_DIR}/campaign_common.cmake)
set(Store "${DIR}/ckpt")
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

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
