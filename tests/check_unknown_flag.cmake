# Runs every bench and example with an unknown flag. Each must print
# "error: unknown flag: --bogus" and exit 1 — the CLI's contract for bad
# input — instead of ignoring the flag or ending in std::terminate.
#
#   cmake -P check_unknown_flag.cmake <program>...
cmake_minimum_required(VERSION 3.16)

set(failures 0)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 3 ${last})  # argv 0-2: cmake -P <this script>
  set(bin "${CMAKE_ARGV${i}}")
  # A program that ignores the flag runs its whole workload; the timeout
  # turns that into a failure instead of a hang.
  execute_process(COMMAND "${bin}" --bogus TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "1" OR NOT err MATCHES "error: unknown flag: --bogus")
    message(SEND_ERROR "${bin} --bogus: exit ${rc}, stderr: ${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
if(failures EQUAL 0)
  math(EXPR count "${CMAKE_ARGC} - 3")
  message(STATUS "${count} programs reject an unknown flag with exit 1")
endif()
