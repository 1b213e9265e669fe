# CLI smoke test over the dump path, run by ctest as cli_dump_ingest_smoke:
#
#   cmake -DDUMP_INGEST=<dump_ingest> -DWIKIMATCH=<wikimatch> \
#         -DWORK_DIR=<scratch dir> -P cli_dump_smoke.cmake
#
# dump_ingest writes en/pt/vi dumps, and every wikimatch verb runs on them:
# build-snapshot, match, types, query, demo, sync, apply-delta and serve
# on a fixed stdin script.
# Each must exit 0, and the SHA-256 of its stdout and of every file it
# writes must equal the digest pinned below. stderr is not pinned: it
# carries timings. The outputs of match and apply-delta must not change
# with --threads, and query --translate and a served snapshot must both honour
# --tlsi. A directory given as a dump, and match --tsv to a full device,
# must fail with an IoError (exit 1, not an abort or a success). An option the
# verb does not read, a stray or second positional, a repeated
# single-valued option and a malformed value are usage errors: exit 2, a
# message naming the verb and the offending argument, and nothing written
# at or beside --out.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(dumps "${WORK_DIR}/dumps")
set(bad_out "${WORK_DIR}/usage_errors")
file(MAKE_DIRECTORY "${bad_out}")

execute_process(COMMAND "${DUMP_INGEST}" "${dumps}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dump_ingest exited ${rc}: ${err}")
endif()

set(en_pt --dump "en=${dumps}/enwiki.xml" --dump "pt=${dumps}/ptwiki.xml")
set(other_dumps --dump "pt=${dumps}/ptwiki.xml" --dump "vi=${dumps}/viwiki.xml"
                --pair pt:en --pair vi:en)
set(film_query "filme(receita > 1000000, elenco=?)")
set(drama_query "filme(direção=?, gênero=\"drama\")")

# Runs `wikimatch ARGN` as step `name` with stdout in <WORK_DIR>/<name>.out
# (stdin from the file after INPUT, if given); the step must exit 0.
function(wikimatch_ok name)
  cmake_parse_arguments(PARSE_ARGV 1 step "" "INPUT" "")
  set(input)
  if(step_INPUT)
    set(input INPUT_FILE "${step_INPUT}")
  endif()
  execute_process(COMMAND "${WIKIMATCH}" ${step_UNPARSED_ARGUMENTS} ${input}
                  OUTPUT_FILE "${WORK_DIR}/${name}.out"
                  RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} exited ${rc}: ${err}")
  endif()
endfunction()

wikimatch_ok(build_snapshot build-snapshot
             --dump "en=${dumps}/enwiki.xml" ${other_dumps}
             --out "${WORK_DIR}/m.snap")
wikimatch_ok(match match ${en_pt} --pair pt:en
             --tsv "${WORK_DIR}/matches.tsv")
foreach(threads 1 4)
  wikimatch_ok(match_threads${threads} match ${en_pt} --pair pt:en
               --threads ${threads}
               --tsv "${WORK_DIR}/matches_threads${threads}.tsv")
endforeach()
wikimatch_ok(types types ${en_pt} --pair pt:en)
wikimatch_ok(query query ${en_pt} --lang pt --pair pt:en --translate
             "${film_query}")
wikimatch_ok(demo demo 0.05)
wikimatch_ok(sync sync --snapshot "${WORK_DIR}/m.snap"
             --out "${WORK_DIR}/synced.snap")

file(STRINGS "${dumps}/ptwiki.xml" first_title REGEX "<title>" LIMIT_COUNT 1)
string(REGEX REPLACE ".*<title>(.*)</title>.*" "\\1" first_title
       "${first_title}")
wikimatch_ok(apply_delta apply-delta --snapshot "${WORK_DIR}/synced.snap"
             --out "${WORK_DIR}/delta.snap" --remove "pt:${first_title}")
foreach(threads 1 4)
  wikimatch_ok(apply_delta_threads${threads} apply-delta
               --snapshot "${WORK_DIR}/synced.snap" --threads ${threads}
               --out "${WORK_DIR}/delta_threads${threads}.snap"
               --remove "pt:${first_title}")
endforeach()

file(WRITE "${WORK_DIR}/serve_script.txt"
     "help\npairs\ntypes pt:en\nalignments pt:en film\n"
     "attr pt:en film pt elenco\nquery pt:en ${film_query}\n"
     "sync-status\nsync pt:en film\n")
wikimatch_ok(serve serve --snapshot "${WORK_DIR}/synced.snap"
             INPUT "${WORK_DIR}/serve_script.txt")

# <file under WORK_DIR> <SHA-256>, for every stdout and written file above.
set(pinned
  build_snapshot.out  e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
  m.snap              7d98415ac85044449d37a11bb2dfa64255a40dc65061401641c7a17a63ee146d
  match.out           5b8342216c8dd6e06ca3082bcd4bf7fd1d3627f8860af1e837d1fb0b0b9eae7a
  matches.tsv         afa89a8937adf43bd1e021ac40ae767071441ec007b9e3ab1d18af08f10bfab9
  match_threads1.out  5b8342216c8dd6e06ca3082bcd4bf7fd1d3627f8860af1e837d1fb0b0b9eae7a
  matches_threads1.tsv afa89a8937adf43bd1e021ac40ae767071441ec007b9e3ab1d18af08f10bfab9
  match_threads4.out  5b8342216c8dd6e06ca3082bcd4bf7fd1d3627f8860af1e837d1fb0b0b9eae7a
  matches_threads4.tsv afa89a8937adf43bd1e021ac40ae767071441ec007b9e3ab1d18af08f10bfab9
  types.out           8f63e1488fdf72d25c3f1a426d08768646c62da341804d71a6b5c60b913fdb1d
  query.out           fc97bfe373b7c7072cf268d1242a58e65e213d8ed7a2e248fedb6a8b881f0ad9
  demo.out            cf11d323bd29f7b23de01b98ac3cca96ad204fa7d0bafa114d461102b453925c
  sync.out            e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
  synced.snap         45e45beed71abcf11a753914b09e0881772f237de82def22a0f581a6d0e17147
  apply_delta.out     e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
  delta.snap          217a4b0d9d5979f09a94ca3d91fb15bdb8babb56afae85a8f945ffe8ab1b9636
  apply_delta_threads1.out e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
  delta_threads1.snap 217a4b0d9d5979f09a94ca3d91fb15bdb8babb56afae85a8f945ffe8ab1b9636
  apply_delta_threads4.out e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
  delta_threads4.snap 217a4b0d9d5979f09a94ca3d91fb15bdb8babb56afae85a8f945ffe8ab1b9636
  serve.out           280cb235aa47c484d8f6b0f345d5d016c98dc3d67f6f62dd696e4e904c4f62d5
)
set(mismatches "")
while(pinned)
  list(POP_FRONT pinned name digest)
  file(SHA256 "${WORK_DIR}/${name}" actual)
  if(NOT actual STREQUAL digest)
    string(APPEND mismatches "\n  ${name}  ${actual} (pinned ${digest})")
  endif()
endwhile()
if(mismatches)
  message(FATAL_ERROR "outputs differ from their pinned digests:"
                      "${mismatches}")
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

# A write that fails late (a full device fails the flush at close) is an
# IoError naming the path, not a success.
if(EXISTS /dev/full)
  execute_process(COMMAND "${WIKIMATCH}" match ${en_pt} --pair pt:en
                          --tsv /dev/full
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "match --tsv /dev/full exited ${rc}, expected 1: "
                        "${err}")
  endif()
  if(NOT err MATCHES "IoError: cannot write /dev/full")
    message(FATAL_ERROR "match --tsv /dev/full printed no IoError naming "
                        "the path: ${err}")
  endif()
endif()

# Both query paths run the matcher under --tlsi: at an LSI threshold no
# pair reaches, a snapshot built under it serves the translation that
# query --translate prints under it, and that translation differs from
# the default threshold's.
wikimatch_ok(snapshot_tlsi5 build-snapshot ${en_pt} --pair pt:en --tlsi 5
             --out "${WORK_DIR}/tlsi5.snap")
file(WRITE "${WORK_DIR}/tlsi5_script.txt" "query pt:en ${drama_query}\n")
wikimatch_ok(serve_tlsi5 serve --snapshot "${WORK_DIR}/tlsi5.snap"
             INPUT "${WORK_DIR}/tlsi5_script.txt")
wikimatch_ok(query_tlsi5 query ${en_pt} --lang pt --pair pt:en --translate
             --tlsi 5 "${drama_query}")
wikimatch_ok(query_drama query ${en_pt} --lang pt --pair pt:en --translate
             "${drama_query}")
file(STRINGS "${WORK_DIR}/serve_tlsi5.out" served REGEX "^translated ")
string(REGEX REPLACE "^translated ([0-9]+) ([0-9]+) (.*)$"
       "# translated query: \\3 (\\1 translated, \\2 relaxed)" served
       "${served}")
file(STRINGS "${WORK_DIR}/query_tlsi5.out" in_process LIMIT_COUNT 1)
file(STRINGS "${WORK_DIR}/query_drama.out" default_tlsi LIMIT_COUNT 1)
if(NOT in_process MATCHES "^# translated query: " OR
   NOT served STREQUAL in_process OR in_process STREQUAL default_tlsi)
  message(FATAL_ERROR "under --tlsi 5, serve answered '${served}' and "
                      "query --translate printed '${in_process}'; the "
                      "default --tlsi printed '${default_tlsi}'")
endif()

# Every file in ${bad_out} with its SHA-256, one per line.
function(bad_out_listing out_var)
  file(GLOB files "${bad_out}/*")
  set(listing "")
  foreach(f IN LISTS files)
    file(SHA256 "${f}" digest)
    string(APPEND listing "${f} ${digest}\n")
  endforeach()
  set(${out_var} "${listing}" PARENT_SCOPE)
endfunction()

# Runs `wikimatch` with the ARGS; it must exit 2 with every string after
# NAMES on stderr, and leave ${bad_out} as it was.
function(expect_usage_error)
  cmake_parse_arguments(PARSE_ARGV 0 case "" "" "NAMES;ARGS")
  list(JOIN case_ARGS " " command)
  bad_out_listing(before)
  execute_process(COMMAND "${WIKIMATCH}" ${case_ARGS}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "wikimatch ${command} exited ${rc}, expected 2: "
                        "${err}")
  endif()
  foreach(name IN LISTS case_NAMES)
    string(FIND "${err}" "${name}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "wikimatch ${command} did not name '${name}': "
                          "${err}")
    endif()
  endforeach()
  bad_out_listing(after)
  if(NOT before STREQUAL after)
    message(FATAL_ERROR "wikimatch ${command} changed ${bad_out}:\n"
                        "${before}->\n${after}")
  endif()
endfunction()

file(COPY "${WORK_DIR}/synced.snap" DESTINATION "${bad_out}")
set(synth_build build-snapshot --synth 0.02 --pair pt:en
                --out "${bad_out}/x.snap")
expect_usage_error(NAMES build-snapshot --threads -1
                   ARGS ${synth_build} --threads -1)
expect_usage_error(NAMES build-snapshot --translate
                   ARGS ${synth_build} --translate)
expect_usage_error(NAMES build-snapshot --listen
                   ARGS ${synth_build} --listen 5)
expect_usage_error(NAMES build-snapshot stray ARGS ${synth_build} stray)
expect_usage_error(NAMES sync --tsim
                   ARGS sync --snapshot "${bad_out}/synced.snap" --tsim 0.9)
expect_usage_error(NAMES sync --remove
                   ARGS sync --snapshot "${bad_out}/synced.snap"
                        --out "${bad_out}/y.snap" --remove pt:x)
expect_usage_error(NAMES serve --listen 70000
                   ARGS serve --snapshot "${bad_out}/synced.snap"
                        --listen 70000)
expect_usage_error(NAMES build-snapshot --dump "${dumps}/enwiki.xml"
                   ARGS ${synth_build} --dump "${dumps}/enwiki.xml")
expect_usage_error(NAMES match --pair
                   ARGS match ${en_pt} --pair pt:en --pair vi:en
                        --tsv "${bad_out}/t.tsv")
expect_usage_error(NAMES demo 0.02 ARGS demo 0.01 0.02)
# The pool is the only thread knob: alignment inside a type pair is
# sequential.
expect_usage_error(NAMES match --align-threads
                   ARGS match ${en_pt} --pair pt:en --align-threads 4
                        --tsv "${bad_out}/t.tsv")
# The TSV cluster format is gone: saved alignments are a snapshot.
expect_usage_error(NAMES match --save-matches
                   ARGS match ${en_pt} --pair pt:en
                        --save-matches "${bad_out}/c.tsv")
expect_usage_error(NAMES query --matches
                   ARGS query ${en_pt} --lang pt --pair pt:en --translate
                        --matches "${bad_out}/c.tsv" "${film_query}")
expect_usage_error(NAMES query "${drama_query}"
                   ARGS query ${en_pt} --lang pt "${film_query}"
                        "${drama_query}")
# Options that only act beside another option need it.
set(plain_query query ${en_pt} --lang pt "${film_query}")
expect_usage_error(NAMES query --pair --translate
                   ARGS ${plain_query} --pair pt:en)
expect_usage_error(NAMES query --tsim --translate
                   ARGS ${plain_query} --tsim 0.9)
expect_usage_error(NAMES query --tlsi --translate
                   ARGS ${plain_query} --tlsi 5)
expect_usage_error(NAMES serve --net-threads --listen
                   ARGS serve --snapshot "${bad_out}/synced.snap"
                        --net-threads 2)
expect_usage_error(NAMES serve --max-conns --listen
                   ARGS serve --snapshot "${bad_out}/synced.snap"
                        --max-conns 5)
expect_usage_error(NAMES build-snapshot --dump --synth
                   ARGS ${synth_build} --dump "en=${dumps}/enwiki.xml")
file(REMOVE_RECURSE "${WORK_DIR}")
