# Runs one bench binary and compares its stdout, byte for byte, with a
# committed expected file. Used by the BenchStdout.* tests:
#
#   cmake -DBENCH=<binary> -DEXPECTED=<file> -P bench_stdout.cmake
#
# On a mismatch the actual output is left next to the test's working
# directory as <name>.actual, so `diff <expected> <name>.actual` shows
# which printed number moved.
execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with status ${rc}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
    get_filename_component(name ${EXPECTED} NAME_WE)
    file(WRITE ${name}.actual "${actual}")
    message(FATAL_ERROR "stdout of ${BENCH} differs from ${EXPECTED} "
                        "(actual output written to ${name}.actual)")
endif()
