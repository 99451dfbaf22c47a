# Runs TOOL with ARGS (one space-separated string) and fails unless it
# exits with status EXPECT_RC and its stdout+stderr match EXPECT_REGEX.
# The CLI tests use it to tell a reported error (exit 1) from an uncaught
# exception (abort, 134), which a plain PASS_REGULAR_EXPRESSION cannot.
#
#   cmake -DTOOL=<exe> "-DARGS=--flag=a --other=b" -DEXPECT_RC=1
#         "-DEXPECT_REGEX=tool: .*" -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT_RC)
  message(FATAL_ERROR "exit status '${rc}', expected ${EXPECT_RC}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "output does not match '${EXPECT_REGEX}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
