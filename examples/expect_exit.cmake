# Runs the command given after `--` and passes only when it exits with
# exactly EXPECT_EXIT (a crash or any other status fails) and its stderr
# matches the regular expression EXPECT_STDERR.
#
#   cmake -DEXPECT_EXIT=1 -DEXPECT_STDERR=<regex> -P expect_exit.cmake \
#         -- <program> [args...]
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()

execute_process(COMMAND ${command}
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE stderr)
if(NOT "${status}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
    "exit status '${status}', expected ${EXPECT_EXIT}; stderr:\n${stderr}")
endif()
if(NOT "${stderr}" MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR
    "stderr does not match '${EXPECT_STDERR}':\n${stderr}")
endif()
