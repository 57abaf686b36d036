# Smoke for the obliv-trace CLI: run scan n=2^12 in-process with a trace
# export, assert the report schema, then re-ingest the exported trace and
# assert the analyzer accepts it (zero drops => exit 0).  Finally, sizes an
# algorithm cannot take must exit 1.
#
# Invoked by ctest:  cmake -DOBLIV_TRACE=<bin> -P obliv_trace_smoke.cmake
if(NOT DEFINED OBLIV_TRACE)
  message(FATAL_ERROR "pass -DOBLIV_TRACE=<path to obliv-trace>")
endif()

set(trace_file "${CMAKE_CURRENT_BINARY_DIR}/obliv_trace_smoke.json")

execute_process(
  COMMAND "${OBLIV_TRACE}" run scan --n=4096 "--trace-out=${trace_file}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "obliv-trace run scan failed (rc=${rc}):\n${out}\n${err}")
endif()

# Report schema: every section the analyzer promises must be present.
foreach(needle
        "== span report:"
        "tasks "
        "parallelism"
        "span check:"
        "recomputed == executor-recorded"
        "predicted speedup (Brent"
        "miss attribution by recursion depth"
        "miss attribution at L"
        "histogram metrics")
  string(FIND "${out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "report is missing '${needle}':\n${out}")
  endif()
endforeach()

# Zero drops: the exporter warns on stderr when rings overwrote events;
# a clean smoke run must not.
string(FIND "${err}" "dropped" droppos)
if(NOT droppos EQUAL -1)
  message(FATAL_ERROR "smoke trace dropped events:\n${err}")
endif()

# Round-trip: the exported trace must parse and analyze to the same report
# body (the title line differs: algo name vs file path).
execute_process(
  COMMAND "${OBLIV_TRACE}" analyze "${trace_file}"
  OUTPUT_VARIABLE out2
  RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "obliv-trace analyze round-trip failed (rc=${rc2})")
endif()
string(FIND "${out2}" "recomputed == executor-recorded" pos2)
if(pos2 EQUAL -1)
  message(FATAL_ERROR "round-trip report lost the span check:\n${out2}")
endif()

# Sizes the algorithms cannot take are refused with exit 1 and a message,
# never run (a non-power-of-two FFT used to corrupt the heap).
foreach(bad "fft;--n=1000" "transpose;--n=48")
  execute_process(
    COMMAND "${OBLIV_TRACE}" run ${bad}
    OUTPUT_VARIABLE out3 ERROR_VARIABLE err3 RESULT_VARIABLE rc3)
  if(NOT rc3 EQUAL 1)
    message(FATAL_ERROR "obliv-trace run ${bad}: expected rc 1, got ${rc3}:\n${out3}\n${err3}")
  endif()
  string(FIND "${err3}" "unsupported size" pos3)
  if(pos3 EQUAL -1)
    message(FATAL_ERROR "obliv-trace run ${bad}: no size message:\n${err3}")
  endif()
endforeach()

file(REMOVE "${trace_file}")
message(STATUS "obliv-trace smoke ok")
