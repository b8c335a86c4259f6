# Fails when a lower layer includes fleet/remote/.  util, metrics, sim, can,
# transport, fuzzer, oracle and feedback sit below the distributed campaign
# service and must build without it.
#
#   cmake -DACF_SRC_DIR=<repo>/src -P tests/check_layering.cmake
if(NOT IS_DIRECTORY "${ACF_SRC_DIR}")
  message(FATAL_ERROR "set -DACF_SRC_DIR to the source tree (got '${ACF_SRC_DIR}')")
endif()

set(violations "")
foreach(layer util metrics sim can transport fuzzer oracle feedback)
  file(GLOB_RECURSE sources "${ACF_SRC_DIR}/${layer}/*.cpp" "${ACF_SRC_DIR}/${layer}/*.hpp")
  if(NOT sources)
    message(FATAL_ERROR "no sources under ${ACF_SRC_DIR}/${layer}: the scan would prove nothing")
  endif()
  foreach(source IN LISTS sources)
    file(STRINGS "${source}" includes REGEX "^[ \t]*#[ \t]*include[ \t]*[<\"]fleet/remote/")
    foreach(line IN LISTS includes)
      file(RELATIVE_PATH where "${ACF_SRC_DIR}" "${source}")
      string(APPEND violations "\n  src/${where}: ${line}")
    endforeach()
  endforeach()
endforeach()

if(violations)
  message(FATAL_ERROR "lower layers include fleet/remote/:${violations}")
endif()
