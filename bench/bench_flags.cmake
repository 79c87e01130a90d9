# The paper benches' flag contract: a flag value a bench cannot run is
# refused with its usage line and exit status 1, never a crash or a table
# of nonsense; the smallest values it can run exit 0; and ablation_mul's
# section [a] names the operand source it used. Each expect() row is one
# command and what it must do. The status must match exactly, so a crash
# (which execute_process reports as a signal name) fails every row.
#
#   cmake -DBIN=<bench binary dir> -DDIR=<work dir> -P bench_flags.cmake

file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

# expect(Status Regex Bench Args...): BIN/Bench Args exits with Status, and
# its stdout matches Regex unless Regex is empty.
function(expect Status Regex Bench)
  execute_process(
    COMMAND "${BIN}/${Bench}" ${ARGN}
    OUTPUT_VARIABLE Out
    ERROR_VARIABLE Err
    RESULT_VARIABLE Got)
  string(JOIN " " Command ${Bench} ${ARGN})
  if(NOT "${Got}" STREQUAL "${Status}")
    message(SEND_ERROR "${Command}: exit ${Got}, want ${Status}\n${Err}")
  elseif(NOT "${Regex}" STREQUAL "" AND NOT "${Out}" MATCHES "${Regex}")
    message(SEND_ERROR "${Command}: stdout lacks /${Regex}/\n${Out}")
  endif()
endfunction()

foreach(Bench ablation_mul fig5_mul_cycles ripple_vs_kernel_add)
  expect(1 "" ${Bench} --pairs 0)
  expect(1 "" ${Bench} --pairs abc)
endforeach()
expect(1 "" fig5_mul_cycles --pairs 10 --trials 0)
expect(1 "" fig5_mul_cycles --pairs 10 --low-bits 0)
expect(1 "" ablation_mul --pairs 20 --width 0)
expect(1 "" ripple_vs_kernel_add --pairs 20 --width 0)

# Fewer than ten pairs still give the naive step one sample.
expect(0 "bitwise_mul_naive" ablation_mul --pairs 5 --width 2)

# With a witness corpus, section [a] says the pairs came from it.
execute_process(
  COMMAND "${BIN}/precision_atlas" --width 4
          --witness-corpus "${DIR}/witness.corpus"
  OUTPUT_QUIET
  RESULT_VARIABLE Got)
if(NOT Got EQUAL 0)
  message(FATAL_ERROR "precision_atlas could not write the corpus: ${Got}")
endif()
expect(0 "\\[a\\][^\n]*pairs replayed from [^\n]*witness\\.corpus"
       ablation_mul --pairs 20 --width 3 --witness-corpus "${DIR}/witness.corpus")
