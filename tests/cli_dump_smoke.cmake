# CLI smoke test over the dump path, run by ctest as cli_dump_ingest_smoke:
#
#   cmake -DDUMP_INGEST=<dump_ingest> -DWIKIMATCH=<wikimatch> \
#         -DWORK_DIR=<scratch dir> -P cli_dump_smoke.cmake
#
# dump_ingest writes en/pt/vi dumps; `wikimatch build-snapshot` must build
# a snapshot from them (exit 0), and must refuse a directory given as a
# dump with an IoError (exit 1, not an abort). A malformed numeric option
# (--threads -1) is a usage error: exit 2, and nothing written at or
# beside --out.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(dumps "${WORK_DIR}/dumps")
set(bad_out "${WORK_DIR}/bad_threads")
file(MAKE_DIRECTORY "${bad_out}")

execute_process(COMMAND "${DUMP_INGEST}" "${dumps}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dump_ingest exited ${rc}: ${err}")
endif()

set(other_dumps --dump "pt=${dumps}/ptwiki.xml" --dump "vi=${dumps}/viwiki.xml"
                --pair pt:en --pair vi:en)

execute_process(COMMAND "${WIKIMATCH}" build-snapshot
                        --dump "en=${dumps}/enwiki.xml" ${other_dumps}
                        --out "${WORK_DIR}/m.snap"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "build-snapshot exited ${rc}: ${err}")
endif()
if(NOT EXISTS "${WORK_DIR}/m.snap")
  message(FATAL_ERROR "build-snapshot wrote no ${WORK_DIR}/m.snap")
endif()

execute_process(COMMAND "${WIKIMATCH}" build-snapshot
                        --dump "en=${dumps}" ${other_dumps}
                        --out "${WORK_DIR}/dir.snap"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "build-snapshot on a directory exited ${rc}, "
                      "expected 1: ${err}")
endif()
if(NOT err MATCHES "IoError")
  message(FATAL_ERROR "build-snapshot on a directory printed no IoError: "
                      "${err}")
endif()

execute_process(COMMAND "${WIKIMATCH}" build-snapshot --synth 0.02
                        --pair pt:en --out "${bad_out}/x.snap" --threads -1
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "build-snapshot --threads -1 exited ${rc}, "
                      "expected 2: ${err}")
endif()
file(GLOB leftovers "${bad_out}/*")
if(leftovers)
  message(FATAL_ERROR "build-snapshot --threads -1 left ${leftovers}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
