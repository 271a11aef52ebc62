# Hostile CLI arguments: each row is one argument list that used to
# abort the process on a WADP_CHECK (exit 134) or silently do nothing
# (exit 0).  Every row must now print the usage text and exit 2 before
# any simulation is built.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(CASES
  "simgrid --sites 1"
  "simgrid --rate 0"
  "simgrid --duration -5"
  "campaign --days 0"
  "history --days -1"
  "simgrid --sites 10 --links 3"
  "probe --days abc")

foreach(row IN LISTS CASES)
  separate_arguments(argv UNIX_COMMAND "${row}")
  execute_process(COMMAND "${WADP_CLI}" ${argv}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT code STREQUAL "2")
    message(FATAL_ERROR "wadp ${row}: exit ${code}, want 2\n${out}\n${err}")
  endif()
  if(NOT err MATCHES "error: .*usage:")
    message(FATAL_ERROR "wadp ${row}: no error + usage on stderr\n${err}")
  endif()
endforeach()

# A rejected campaign must not have touched the output directory.
if(EXISTS "${WORK_DIR}/traces")
  message(FATAL_ERROR "wadp campaign --days 0 created ${WORK_DIR}/traces")
endif()
