# ctest helper: passes only when EXE, run with the shell-quoted ARGS, exits
# with exactly EXPECTED_EXIT. ctest alone tells only zero from nonzero, and a
# gate that must fail with 1 (a breach) or 2 (a usage error) also "fails" on a
# crash.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args} RESULT_VARIABLE code)
if(NOT code STREQUAL "${EXPECTED_EXIT}")
  message(FATAL_ERROR "${EXE} ${ARGS}: exit ${code}, expected ${EXPECTED_EXIT}")
endif()
