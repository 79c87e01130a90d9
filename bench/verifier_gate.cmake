# Runs verifier_throughput on the workload of the committed
# BENCH_verifier.json baseline and gates the run's identity fields against
# it: verdict counts, insn visits, dedup hits and the verdict fingerprint.
# The throughput floor is 0, so the gate holds on any build type and host.
#
#   cmake -DBENCH=<verifier_throughput> -DPYTHON=<python3>
#         -DGATE=<ci/compare_bench.py> -DBASELINE=<BENCH_verifier.json>
#         -DOUT=<run json> -P verifier_gate.cmake

execute_process(
  COMMAND "${BENCH}" --programs 5000 --seed 2022 --jobs 1 --json "${OUT}"
  RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "verifier_throughput failed: ${Status}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${GATE}" "${OUT}" "${BASELINE}"
          --min-throughput-ratio 0
  RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "verifier baseline gate failed: ${Status}")
endif()
