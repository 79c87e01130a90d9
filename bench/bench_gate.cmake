# Runs one bench on a fixed workload and gates the identity fields of its
# JSON report against a committed baseline with ci/compare_bench.py
# (verdicts, work counts, fingerprints, precision gaps: whatever the
# baseline's gate compares exactly). The throughput floor is 0, so the gate
# holds on any build type and host.
#
#   cmake -DBENCH=<bench binary> "-DARGS=<workload flags>"
#         -DPYTHON=<python3> -DGATE=<ci/compare_bench.py>
#         -DBASELINE=<committed json> -DOUT=<run json> -P bench_gate.cmake
#
# ARGS is one space-separated string; the script appends --json <OUT>.

separate_arguments(BenchArgs UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BENCH}" ${BenchArgs} --json "${OUT}"
  RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed: ${Status}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${GATE}" "${OUT}" "${BASELINE}"
          --min-throughput-ratio 0
  RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "baseline gate against ${BASELINE} failed: ${Status}")
endif()
