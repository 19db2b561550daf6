# Runs memreal_serve's deterministic verify table on arena cells at the
# default 2^22-tick capacity and passes only if it exits 0 with every
# allocator that cannot be built there (GEO's size classes collapse)
# listed as skipped, and every other pair bit-identical.
#
#   cmake -DTOOL=<memreal_serve> -P expect_serve_arena_verify.cmake
execute_process(COMMAND ${CMAKE_COMMAND} -E env MEMREAL_FAST=1
                        "${TOOL}" --verify-only --json "" --arena
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "exit status '${rc}', expected 0\n${out}\n${err}")
endif()
foreach(line IN ITEMS
    "skipped: capacity too small for eps"
    "deterministic verify: every pair bit-identical")
  string(FIND "${out}" "${line}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no '${line}' in stdout: ${out}")
  endif()
endforeach()
