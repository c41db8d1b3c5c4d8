# Run one command and require its exact exit status and a stderr substring.
#
#   cmake -DCMD=<program> [-DARGS=<a;b;...>] -DEXPECT_EXIT=<n>
#         -DEXPECT_STDERR=<text> -P expect_exit.cmake
#
# Unlike PASS_REGULAR_EXPRESSION, which ignores the exit code, this fails
# when the program dies on a signal (RESULT_VARIABLE is then a message
# such as "Child aborted", never a number).
execute_process(
  COMMAND "${CMD}" ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
    "expected exit status ${EXPECT_EXIT}, got '${rc}'\nstderr:\n${err}")
endif()
string(FIND "${err}" "${EXPECT_STDERR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${EXPECT_STDERR}':\n${err}")
endif()
