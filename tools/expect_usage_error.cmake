# Runs one CLI with a single malformed flag value and passes only if the
# tool rejects it as a usage error: exit status 2 and a "bad value" line
# naming the value and the flag.
#
#   cmake -DTOOL=<exe> -DFLAG=<flag> -DVALUE=<value> -P expect_usage_error.cmake
execute_process(COMMAND "${TOOL}" "${FLAG}" "${VALUE}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${FLAG} '${VALUE}': exit status '${rc}', expected 2\n"
                      "stderr: ${err}")
endif()
string(FIND "${err}" "bad value '${VALUE}' for ${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${FLAG} '${VALUE}': no \"bad value\" message\n"
                      "stderr: ${err}")
endif()
