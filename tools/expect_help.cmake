# Runs one CLI with --help (or -h) and passes only if it prints its usage
# to stdout, starting with "<tool> [options]", and exits with status 0.
#
#   cmake -DTOOL=<exe> -DNAME=<tool name> -DFLAG=<--help|-h> -P expect_help.cmake
execute_process(COMMAND "${TOOL}" "${FLAG}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME} ${FLAG}: exit status '${rc}', expected 0\n"
                      "stderr: ${err}")
endif()
string(FIND "${out}" "${NAME} [options]" at)
if(NOT at EQUAL 0)
  message(FATAL_ERROR "${NAME} ${FLAG}: usage does not start with "
                      "\"${NAME} [options]\"\nstdout: ${out}")
endif()
