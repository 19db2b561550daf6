# Runs memreal_shard on a GEO configuration whose eps is past the ceiling
# where GEO's served band drops below its eps^5 class floor, and passes
# only if the run is rejected up front: exit status 2, the eps-ceiling
# reason with the compatible-scenario list, and no summary line.
#
#   cmake -DTOOL=<memreal_shard> -P expect_scenario_rejection.cmake
execute_process(COMMAND "${TOOL}" --engine release --allocator geo
                        --eps 0.125 --workload churn --capacity-log2 22
                        --updates 2000
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "exit status '${rc}', expected 2\nstderr: ${err}")
endif()
foreach(line IN ITEMS
    "geo: eps 0.125000 beyond the supported ceiling"
    "(compatible scenarios for geo: none at this eps)")
  string(FIND "${err}" "${line}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no '${line}' in stderr: ${err}")
  endif()
endforeach()
string(FIND "${out}" "updates/s" at)
if(NOT at EQUAL -1)
  message(FATAL_ERROR "the run started before rejecting: ${out}")
endif()
