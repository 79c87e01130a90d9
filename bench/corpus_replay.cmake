# The corpus round-trip contract: the request stream one run verified,
# dumped and replayed through the batch and fuzz oracles, gets the same
# verdicts. The workload lives here; DIR is deleted and recreated.
#
#   cmake -DBENCH=<verifier_throughput binary> -DPYTHON=<python3>
#         -DDIR=<work dir> -P corpus_replay.cmake

include(${CMAKE_CURRENT_LIST_DIR}/campaign_common.cmake)
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
run_bench(Dump --programs 800 --seed 5 --profile maskidx
          --dump-corpus "${DIR}/seed.corpus" --json "${DIR}/dump.json")
run_bench(Replay --replay "${DIR}/seed.corpus" --fuzz 200
          --json "${DIR}/replay.json")

execute_process(
  COMMAND "${PYTHON}" -c [=[
import json, sys
dump, replay = (json.load(open(path)) for path in sys.argv[1:])
for key in ("verdict_fingerprint", "accepted", "rejected_structural",
            "rejected_semantic", "deterministic"):
    if dump[key] != replay[key]:
        sys.exit(f"{key}: dump {dump[key]!r} != replay {replay[key]!r}")
]=] "${DIR}/dump.json" "${DIR}/replay.json"
  RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "the replayed corpus gave other verdicts: ${Status}")
endif()
