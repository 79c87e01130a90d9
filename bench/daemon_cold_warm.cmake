# The daemon's cross-run verdict cache: two daemon_throughput runs on one
# fresh cache directory, each spawning its own in-process daemon, so the
# warm run reads the durable store across a process restart. The cold run
# must analyze, the warm one must be served from the cache alone with the
# same verdict fingerprint, and both must match the in-process engine
# (daemon_throughput also exits nonzero when its clients disagree). The
# cold run's analysis count is not pinned: duplicate requests race across
# clients. DIR is deleted and recreated.
#
#   cmake -DBENCH=<daemon_throughput binary> -DDIR=<work dir>
#         -P daemon_cold_warm.cmake

set(ARGS "--clients 4 --programs 1500 --seed 7")
include(${CMAKE_CURRENT_LIST_DIR}/campaign_common.cmake)
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
foreach(Run cold warm)
  run_bench(Out --cache "${DIR}/cache" --json "${DIR}/${Run}.json")
  file(READ "${DIR}/${Run}.json" Json)
  foreach(Key analyses_delta cache_hits_delta verdict_fingerprint
              matches_in_process)
    string(JSON ${Run}_${Key} GET "${Json}" ${Key})
  endforeach()
  if(NOT ${Run}_matches_in_process)
    message(FATAL_ERROR "${Run} run: verdicts differ from the in-process "
                        "engine")
  endif()
endforeach()

if(NOT cold_analyses_delta GREATER 0)
  message(FATAL_ERROR "cold run never ran the analyzer")
endif()
if(NOT warm_analyses_delta EQUAL 0)
  message(FATAL_ERROR "warm run re-analyzed ${warm_analyses_delta} programs")
endif()
if(NOT warm_cache_hits_delta GREATER 0)
  message(FATAL_ERROR "warm run missed the cache")
endif()
if(NOT cold_verdict_fingerprint STREQUAL warm_verdict_fingerprint)
  message(FATAL_ERROR "cache-served verdicts ${warm_verdict_fingerprint} "
                      "differ from analyzed ones ${cold_verdict_fingerprint}")
endif()
