# Runs an arena fuzz campaign whose default target list includes
# allocators that cannot be built at capacity 2^20, and passes only if
# memreal_fuzz rejects it up front: exit status 2, one line naming each
# infeasible allocator with its reason, and no iteration run.
#
#   cmake -DTOOL=<memreal_fuzz> -P expect_fuzz_rejection.cmake
execute_process(COMMAND "${TOOL}" --engine arena --capacity-log2 20
                        --seed 1 --iters 1 --threads 1 --corpus ""
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "exit status '${rc}', expected 2\nstderr: ${err}")
endif()
foreach(line IN ITEMS
    "cannot run at capacity 2^20"
    "\n  geo (eps 0.015625): capacity too small for eps"
    "\n  combined (eps 0.03125): capacity too small")
  string(FIND "${err}" "${line}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no '${line}' in stderr: ${err}")
  endif()
endforeach()
string(FIND "${out}" " ran " at)
if(NOT at EQUAL -1)
  message(FATAL_ERROR "the campaign ran before rejecting: ${out}")
endif()
