# Runs one binary and compares its stdout byte for byte with a golden file:
#
#   cmake -DACF_BIN=<binary> -DACF_GOLDEN=<file> -DACF_ACTUAL=<file> \
#         -P tests/check_stdout.cmake
#
# The binary's stdout stays in ACF_ACTUAL, so a failing case can be diffed
# against the golden file.
execute_process(COMMAND "${ACF_BIN}" OUTPUT_FILE "${ACF_ACTUAL}" RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${ACF_BIN} exited with status ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${ACF_ACTUAL}" "${ACF_GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${ACF_BIN} differs from ${ACF_GOLDEN} (it is in ${ACF_ACTUAL})")
endif()
