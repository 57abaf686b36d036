# Asserts that run: configure a nested build without NDEBUG and with
# -D_GLIBCXX_ASSERTIONS (bounds-checked standard containers), build the
# obliv_assert_tests subset of obliv_tests, and run its registry,
# native-leaf, fault-fuzz, golden-counter and gep cases.  Every tier-1
# build defines NDEBUG, so this is where the library's internal asserts
# (RangeSplit, run_root's empty deque, gep's equal halves, the views'
# bounds) run under ctest; a failed assert aborts the run.
#
# The nested build directory persists between ctest runs, so after the
# first (cold, full-library) build this is an incremental no-op build plus
# the test run.
#
# Invoked by ctest:
#   cmake -DOBLIV_SOURCE=<repo> -DOBLIV_NESTED_DIR=<dir> [-DOBLIV_CXX=<cxx>]
#         -P obliv_asserts_smoke.cmake
if(NOT DEFINED OBLIV_SOURCE OR NOT DEFINED OBLIV_NESTED_DIR)
  message(FATAL_ERROR "pass -DOBLIV_SOURCE=<repo> -DOBLIV_NESTED_DIR=<dir>")
endif()

# -O1 and no -g: a cold build of the library and the subset costs about a
# third less compile time than at the tier-1 build's -O2 -g, while the run
# takes a few seconds longer; the asserts run the same either way.
set(configure_args
  -S "${OBLIV_SOURCE}" -B "${OBLIV_NESTED_DIR}"
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
  "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=-O1"
  "-DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS")
if(DEFINED OBLIV_CXX)
  list(APPEND configure_args "-DCMAKE_CXX_COMPILER=${OBLIV_CXX}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" ${configure_args}
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "assert build configure failed (rc=${rc}):\n${out}\n${err}")
endif()

# ctest runs this beside other entries, and the cold build is the longest
# path of a tier-1 ctest run; twice the 4 cores' worth of jobs took about
# 12 s off it (84 s instead of 96 s under ctest -j4).
execute_process(
  COMMAND "${CMAKE_COMMAND}" --build "${OBLIV_NESTED_DIR}"
          --target obliv_assert_tests -j 8
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "assert build failed (rc=${rc}):\n${out}\n${err}")
endif()

set(filter "Kinds/Registry.*:NativeLeaf.*:FaultFuzz.Native*:GoldenCounters.*:Gep.*")
execute_process(
  COMMAND "${OBLIV_NESTED_DIR}/tests/obliv_assert_tests"
          "--gtest_filter=${filter}"
  WORKING_DIRECTORY "${OBLIV_NESTED_DIR}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "obliv_assert_tests failed with asserts on (rc=${rc}):\n${out}\n${err}")
endif()

string(REGEX MATCH "[0-9]+ tests? from [0-9]+ test suites? ran" summary "${out}")
message(STATUS "assert build smoke ok: ${summary}")
