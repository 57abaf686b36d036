# Golden for the tracked BENCH_span.json: regenerate it into the build tree
# with `obliv-trace bench` and byte-compare against the tracked copy.  The
# file holds only logical simulator metrics (work, span, misses, Brent
# speedups), so any difference is a change in what the workloads do on the
# simulator, not noise.  After an intentional change, regenerate with
#   obliv-trace bench --out=BENCH_span.json
# from the repo root and commit the result.
#
# Invoked by ctest:
#   cmake -DOBLIV_TRACE=<bin> -DGOLDEN=<tracked json> -DOUT=<scratch json>
#         -P bench_span_golden.cmake
if(NOT DEFINED OBLIV_TRACE OR NOT DEFINED GOLDEN OR NOT DEFINED OUT)
  message(FATAL_ERROR "pass -DOBLIV_TRACE=<bin> -DGOLDEN=<json> -DOUT=<json>")
endif()

execute_process(
  COMMAND "${OBLIV_TRACE}" bench "--out=${OUT}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "obliv-trace bench failed (rc=${rc}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the tracked ${GOLDEN}:\n${out}")
endif()
message(STATUS "BENCH_span.json regenerates byte-identically")
