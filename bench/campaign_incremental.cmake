# The incremental re-verification contract: checkpoint a width-6 campaign,
# flip our_mul's content fingerprint with --flip-mul (the CLI face of the
# test-only OperatorOverride hook: semantics unchanged, fingerprint
# changed), resume, and require that
#  (a) only the two mul[our_mul]/w6/soundness cells were invalidated and
#      re-run, and every other cell was served from the store;
#  (b) the resumed report matches a from-scratch run of the flipped spec
#      byte for byte once "campaign" lines are dropped;
#  (c) --diff-baseline against a copy of the pre-flip store classifies
#      exactly those cells as re-run, with no verdict changes.
#
#   cmake -DBENCH=<soundness_verification binary> -DDIR=<work dir>
#         -P campaign_incremental.cmake
#
# The workload lives here, next to the lines it must print. DIR is deleted
# and recreated.

set(ARGS "--width 6 --mul-width 6 --random-pairs 500 --shard-pairs 200000 --no-timing")
include(${CMAKE_CURRENT_LIST_DIR}/campaign_common.cmake)
set(Store "${DIR}/ckpt")
set(Baseline "${DIR}/ckpt-baseline")
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

# Fails unless the run named Name printed Expected somewhere in Text.
function(expect_text Name Text Expected)
  string(FIND "${Text}" "${Expected}" At)
  if(At EQUAL -1)
    file(WRITE "${DIR}/${Name}.txt" "${Text}")
    message(FATAL_ERROR "the ${Name} run did not print \"${Expected}\"; "
                        "see ${DIR}/${Name}.txt")
  endif()
endfunction()

# Fails unless exactly Expected lines of Text match Regex.
function(expect_line_count Name Text Regex Expected)
  string(REPLACE ";" "," Lines "${Text}")
  string(REPLACE "\n" ";" Lines "${Lines}")
  list(FILTER Lines INCLUDE REGEX "${Regex}")
  list(LENGTH Lines Count)
  if(NOT Count EQUAL Expected)
    file(WRITE "${DIR}/${Name}.txt" "${Text}")
    message(FATAL_ERROR "the ${Name} run printed ${Count} lines matching "
                        "\"${Regex}\", not ${Expected}; see ${DIR}/${Name}.txt")
  endif()
endfunction()

run_bench(Unused --checkpoint-dir "${Store}")
file(COPY "${Store}/" DESTINATION "${Baseline}")
run_bench(Resumed --checkpoint-dir "${Store}" --resume --flip-mul our_mul)
run_bench(Fresh --flip-mul our_mul)
run_bench(Diff --flip-mul our_mul --diff-baseline "${Baseline}")

# (a) The two mul[our_mul]/w6/soundness cells (the all-ops grid's and the
# six-algorithm grid's) re-ran, and nothing else: the banner plus 28 cell
# lines mention invalidation, and 26 cells ran nothing.
expect_text(resumed "${Resumed}" "campaign cell mul[our_mul]/w6/soundness: 3 run, 0 resumed, 3 invalidated")
expect_text(resumed "${Resumed}" "6 invalidated by operator changes")
expect_line_count(resumed "${Resumed}" "invalidated" 29)
expect_line_count(resumed "${Resumed}" ": 0 run, .* 0 invalidated$" 26)

# (b) The merged report equals the from-scratch flipped run.
drop_campaign_lines(Resumed "${Resumed}")
drop_campaign_lines(Fresh "${Fresh}")
if(NOT Resumed STREQUAL Fresh)
  file(WRITE "${DIR}/resumed.txt" "${Resumed}")
  file(WRITE "${DIR}/fresh.txt" "${Fresh}")
  message(FATAL_ERROR "the resumed flipped campaign does not match a fresh "
                      "run; compare ${DIR}/resumed.txt and ${DIR}/fresh.txt")
endif()

# (c) The diff against the pre-flip store: 2 re-run cells, no verdict moved.
expect_text(diff "${Diff}" "26 cells reused, 2 re-run, 0 verdicts changed")
