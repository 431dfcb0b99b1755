# Lists every test binary's tests twice. Fails when the two listings of one
# binary differ, or when a listing names a test after a raw byte dump of its
# parameter ("byte object") outside the suites held below. ctest names come
# from these listings, so comparing two test runs by name means something
# only while both hold.
#
#   cmake -P check_test_names.cmake <test binary>...
cmake_minimum_required(VERSION 3.16)  # if(IN_LIST)

# Suites that keep their byte-dump names, so their results still match
# earlier runs by name. Each parameter is an enum or a struct without
# padding, so every printed byte belongs to the value.
set(byte_named_suites AllFamilies/ShapeFamilies)

set(failures 0)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 3 ${last})  # argv 0-2: cmake -P <this script>
  set(bin "${CMAKE_ARGV${i}}")
  foreach(run 1 2)
    execute_process(COMMAND "${bin}" --gtest_list_tests
                    RESULT_VARIABLE rc OUTPUT_VARIABLE listing_${run}
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(SEND_ERROR "${bin} --gtest_list_tests failed (${rc}): ${err}")
      math(EXPR failures "${failures} + 1")
    endif()
  endforeach()
  # One list item per line: characters CMake lists treat specially go.
  set(text "${listing_1}")
  foreach(c ";" "[" "]" "\\")
    string(REPLACE "${c}" "_" text "${text}")
  endforeach()
  string(REPLACE "\n" ";" lines "${text}")
  set(suite "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^([^ ]+)\\.")  # suite header; its tests are indented
      set(suite "${CMAKE_MATCH_1}")
    elseif(line MATCHES "byte object" AND NOT suite IN_LIST byte_named_suites)
      message(SEND_ERROR "${bin}: parameter printed as bytes: ${suite}.${line}")
      math(EXPR failures "${failures} + 1")
    endif()
  endforeach()
  if(NOT listing_1 STREQUAL listing_2)
    message(SEND_ERROR "${bin}: two listings differ")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
if(failures EQUAL 0)
  math(EXPR count "${CMAKE_ARGC} - 3")
  message(STATUS "${count} test binaries list stable, readable names")
endif()
