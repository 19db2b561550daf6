# Runs a cell driver with --arena at a per-shard capacity whose byte arena
# (2^30 ticks x 8 bytes = 8 GiB) passes ArenaOptions::max_arena_bytes, and
# passes only if the run is rejected as a usage error: exit status 2, a
# message naming the cap and the flags that shrink the arena, and no run
# output.
#
#   cmake -DTOOL=<memreal_shard|memreal_serve> -DWORKLOAD=<zoo name>
#         -P expect_arena_cap_rejection.cmake
execute_process(COMMAND "${TOOL}" --arena --workload ${WORKLOAD}
                        --capacity-log2 30 --updates 2000
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "exit status '${rc}', expected 2\nstderr: ${err}")
endif()
foreach(text IN ITEMS "max_arena_bytes cap" "--capacity-log2"
                      "--bytes-per-tick")
  string(FIND "${err}" "${text}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no '${text}' in stderr: ${err}")
  endif()
endforeach()
foreach(text IN ITEMS "updates/s" "deterministic verify")
  string(FIND "${out}" "${text}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "the run started before rejecting: ${out}")
  endif()
endforeach()
