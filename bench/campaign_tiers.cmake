# The SIMD tier-forcing contract: the same campaign under every --simd mode
# must print the --simd=auto report byte for byte once the two lines that
# name the mode ("member-scan path" and "scalar serial") are dropped. A
# forced tier this host cannot execute may fail, and only with "not
# supported on this host"; at least one must, since no host runs both NEON
# and AVX-512.
#
#   cmake -DBENCH=<soundness_verification binary> -DDIR=<work dir>
#         -P campaign_tiers.cmake
#
# The workload lives here, next to the modes it runs. DIR is deleted and
# recreated.

set(ARGS "--width 3 --mul-width 4 --random-pairs 1000 --compare-serial --no-timing")
include(${CMAKE_CURRENT_LIST_DIR}/campaign_common.cmake)
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

# Runs the bench under --simd=Mode: stdout without the mode-naming lines in
# Var, the exit status in Var_STATUS and stderr in Var_ERR.
function(run_mode Var Mode)
  execute_process(
    COMMAND "${BENCH}" ${BenchArgs} --simd=${Mode}
    OUTPUT_VARIABLE Out
    ERROR_VARIABLE Err
    RESULT_VARIABLE Status)
  string(REGEX REPLACE "\n(member-scan path|scalar serial)[^\n]*" ""
         Out "\n${Out}")
  set(${Var} "${Out}" PARENT_SCOPE)
  set(${Var}_STATUS "${Status}" PARENT_SCOPE)
  set(${Var}_ERR "${Err}" PARENT_SCOPE)
endfunction()

run_mode(Auto auto)
if(NOT Auto_STATUS EQUAL 0)
  message(FATAL_ERROR "--simd=auto failed: ${Auto_STATUS}\n${Auto_ERR}")
endif()

set(Refused "")
foreach(Mode portable off avx2 avx512 neon)
  run_mode(Run ${Mode})
  if(Run_STATUS EQUAL 0)
    if(NOT Run STREQUAL Auto)
      file(WRITE "${DIR}/auto.txt" "${Auto}")
      file(WRITE "${DIR}/${Mode}.txt" "${Run}")
      message(FATAL_ERROR "--simd=${Mode} does not print the --simd=auto "
                          "report; compare ${DIR}/auto.txt and "
                          "${DIR}/${Mode}.txt")
    endif()
  else()
    string(FIND "${Run_ERR}" "not supported on this host" At)
    if(At EQUAL -1)
      message(FATAL_ERROR "--simd=${Mode} failed (${Run_STATUS}) without "
                          "naming an unsupported tier:\n${Run_ERR}")
    endif()
    list(APPEND Refused ${Mode})
  endif()
endforeach()
if(NOT Refused)
  message(FATAL_ERROR "no forced tier was refused, yet no host runs both "
                      "NEON and AVX-512")
endif()
message(STATUS "refused as unsupported on this host: ${Refused}")
