# ctest helper: passes only when EXE, run without arguments, exits 0 and
# prints exactly the bytes of GOLDEN on stdout. The paper tables are
# deterministic, so any difference is a changed number. On a mismatch the
# output is kept in ACTUAL and diffed against GOLDEN.
execute_process(COMMAND "${EXE}" RESULT_VARIABLE code OUTPUT_VARIABLE out)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "${EXE}: exit ${code}, expected 0")
endif()
file(READ "${GOLDEN}" golden)
if(NOT out STREQUAL golden)
  file(WRITE "${ACTUAL}" "${out}")
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "${EXE}: stdout differs from ${GOLDEN} (output kept in ${ACTUAL})")
endif()
