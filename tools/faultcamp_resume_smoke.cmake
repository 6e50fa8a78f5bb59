# audo-faultcamp --resume refuses a journal record whose outcome is not an
# outcome name, or that lacks a field: it exits 1 and names the record's
# manifest line, and never replays the record as some other outcome or
# with a field read as 0. The retired warm-fork options are unknown
# (exit 2). Driven by CTest via -P; FAULTCAMP and WORK_DIR come in as -D
# definitions.
set(campaign --idle-revs 2 --scenarios 6 --seed 3 --jobs 1)
set(manifest ${WORK_DIR}/resume_smoke.jsonl)

foreach(retired "--cold-boot" "--snapshot;${WORK_DIR}/resume_smoke.bin")
  execute_process(COMMAND ${FAULTCAMP} ${campaign} ${retired}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${retired} should be an unknown option (exit 2), got: ${rc}")
  endif()
endforeach()

execute_process(COMMAND ${FAULTCAMP} ${campaign} --manifest ${manifest}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "journaled campaign failed: ${rc}")
endif()

# Corrupt the one "sdc" record's outcome and find its line.
file(READ ${manifest} text)
string(FIND "${text}" "\"outcome\":\"sdc\"" at)
if(at EQUAL -1)
  message(FATAL_ERROR "no sdc record in ${manifest}")
endif()
string(SUBSTRING "${text}" 0 ${at} head)
string(REGEX MATCHALL "\n" newlines "${head}")
list(LENGTH newlines line)
math(EXPR line "${line} + 1")
string(REPLACE "\"outcome\":\"sdc\"" "\"outcome\":\"sdx\"" text "${text}")
file(WRITE ${manifest} "${text}")

execute_process(COMMAND ${FAULTCAMP} ${campaign} --resume ${manifest}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "--resume of a corrupt outcome should exit 1, got: ${rc}\n${out}${err}")
endif()
string(FIND "${err}" "line ${line}: unknown outcome \"sdx\"" named)
if(named EQUAL -1)
  message(FATAL_ERROR "--resume error does not name line ${line}: ${err}")
endif()

# A record whose "cycles" key is renamed away would resume as 0 cycles:
# --resume exits 1 and names the record's line and the field instead.
string(REPLACE "\"outcome\":\"sdx\"" "\"outcome\":\"sdc\"" text "${text}")
string(FIND "${text}" "\"cycles\":" at)
string(SUBSTRING "${text}" 0 ${at} head)
string(REGEX MATCHALL "\n" newlines "${head}")
list(LENGTH newlines line)
math(EXPR line "${line} + 1")
math(EXPR tail_at "${at} + 9")
string(SUBSTRING "${text}" ${tail_at} -1 tail)
set(text "${head}\"cyclez\":${tail}")
file(WRITE ${manifest} "${text}")

execute_process(COMMAND ${FAULTCAMP} ${campaign} --resume ${manifest}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "--resume of a record without cycles should exit 1, got: ${rc}\n${out}${err}")
endif()
string(FIND "${err}" ":${line}: field \"cycles\" is missing" named)
if(named EQUAL -1)
  message(FATAL_ERROR "--resume error does not name line ${line} and cycles: ${err}")
endif()
file(READ ${manifest} after)
if(NOT after STREQUAL text)
  message(FATAL_ERROR "--resume changed the manifest it refused")
endif()
