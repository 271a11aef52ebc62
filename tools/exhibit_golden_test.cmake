# Exhibit golden: runs one paper exhibit or CLI verb and compares its
# stdout byte for byte with the committed golden tools/golden/<name>.txt.
#
#   cmake -DEXHIBIT=<name> -DPROGRAM=<binary> -DGOLDEN=<file>
#         -DWORK_DIR=<dir> -P exhibit_golden_test.cmake
#
# EXHIBIT names a bench binary (run without arguments) or one of the
# CLI cases below, for which PROGRAM is the wadp binary.  On a mismatch
# the actual output is left in WORK_DIR/<name>.actual for diffing.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(ARGS "")
if(EXHIBIT STREQUAL "wadp_quality_json")
  set(ARGS quality --json)
elseif(EXHIBIT STREQUAL "wadp_analyze_extended")
  execute_process(
    COMMAND "${PROGRAM}" campaign --days 10 --seed 11 --out "${WORK_DIR}"
    RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "campaign failed (${code}):\n${err}")
  endif()
  set(ARGS analyze "${WORK_DIR}/gridftp-lbl-anl.ulm" --extended)
endif()

execute_process(COMMAND "${PROGRAM}" ${ARGS}
                RESULT_VARIABLE code OUTPUT_VARIABLE actual ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${EXHIBIT} failed (${code}):\n${err}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${WORK_DIR}/${EXHIBIT}.actual" "${actual}")
  message(FATAL_ERROR
    "${EXHIBIT} output differs from its golden:\n"
    "  diff ${GOLDEN} ${WORK_DIR}/${EXHIBIT}.actual")
endif()
