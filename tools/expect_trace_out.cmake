# Runs a small memreal_shard batch with --trace-out and passes only if the
# file is Chrome trace_event JSON whose traceEvents is non-empty and holds
# an "apply" span.
#
#   cmake -DTOOL=<memreal_shard> -DOUT=<file> -P expect_trace_out.cmake
file(REMOVE "${OUT}")
execute_process(COMMAND "${TOOL}" --shards 2 --updates 500 --quiet
                        --trace-out "${OUT}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "exit status '${rc}', expected 0\nstderr: ${err}")
endif()
file(READ "${OUT}" doc)
string(JSON events ERROR_VARIABLE bad LENGTH "${doc}" traceEvents)
if(bad OR events EQUAL 0)
  message(FATAL_ERROR "no traceEvents in ${OUT}: ${bad}")
endif()
string(FIND "${doc}" "\"name\":\"apply\"" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${events} spans in ${OUT}, none named apply")
endif()
