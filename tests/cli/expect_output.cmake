# Runs COMMAND with ARGS (one space-separated string) in WORKING_DIRECTORY
# and passes only when it exits 0 and its stdout equals the file EXPECTED
# byte for byte:
#
#   cmake -DCOMMAND=<exe> "-DARGS=<args>" -DWORKING_DIRECTORY=<dir>
#         -DEXPECTED=<file> -P expect_output.cmake
#
# After a deliberate output change, regenerate EXPECTED by running the
# same command from WORKING_DIRECTORY with stdout redirected to it.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${COMMAND}" ${args}
                WORKING_DIRECTORY "${WORKING_DIRECTORY}"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "exit status '${code}', expected 0\nstderr:\n${err}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "stdout differs from ${EXPECTED}\n"
                      "--- got:\n${out}--- expected:\n${expected}")
endif()
