# Smoke of the one Table II driver, in two modes that share one output file.
#
# Run:   cmake -DBENCH=<bench_table2> -DOUT=<file> -P table2_smoke.cmake
#        runs `bench_table2 --smoke`, prints its output and saves it to OUT;
#        fails on a nonzero exit (OUT is then left absent).
# Check: cmake -DOUT=<file> -DSECTION=<header> -P table2_smoke.cmake
#        fails unless the saved run printed the section "==== <header> ===="
#        and that section holds at least one table row.
#
# ctest runs the driver once (bench_table2_smoke, a fixture setup) and checks
# each theorem's section as its own entry, so a failure names the theorem.
if(NOT DEFINED OUT)
  message(FATAL_ERROR "pass -DOUT=<path of the saved smoke output>")
endif()

if(DEFINED BENCH)
  file(REMOVE "${OUT}")
  execute_process(
    COMMAND "${BENCH}" --smoke
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  message("${out}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_table2 --smoke failed (rc=${rc}):\n${err}")
  endif()
  file(WRITE "${OUT}" "${out}")
  return()
endif()

if(NOT DEFINED SECTION)
  message(FATAL_ERROR "pass -DBENCH=<bench_table2> or -DSECTION=<header>")
endif()
if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "no saved smoke output at ${OUT}; run bench_table2_smoke")
endif()
file(READ "${OUT}" out)
set(header "==== ${SECTION} ====\n")
string(FIND "${out}" "${header}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "bench_table2 --smoke printed no section '${SECTION}'")
endif()
string(LENGTH "${header}" len)
math(EXPR start "${pos} + ${len}")
string(SUBSTRING "${out}" ${start} -1 body)
string(FIND "${body}" "\n==== " next)
if(NOT next EQUAL -1)
  string(SUBSTRING "${body}" 0 ${next} body)
endif()
string(FIND "\n${body}" "\n|" row)
if(row EQUAL -1)
  message(FATAL_ERROR "section '${SECTION}' has no table row:\n${body}")
endif()
