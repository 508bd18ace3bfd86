# Runs COMMAND with ARGS (one space-separated string) and passes only
# when it exits with EXIT_CODE and its stderr contains STDERR:
#
#   cmake -DCOMMAND=<exe> "-DARGS=<args>" -DEXIT_CODE=<n>
#         "-DSTDERR=<text>" -P expect_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${COMMAND}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR
          "exit status '${code}', expected ${EXIT_CODE}\nstderr:\n${err}")
endif()
string(FIND "${err}" "${STDERR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${STDERR}':\n${err}")
endif()
