# Record/replay smoke: capture an engine golden with audo-profile
# --record, then replay it bit-identically under the opposite execution
# tier, with a deliberate mutation (which must fail with a frame-level
# divergence) and with mutation values that must be refused. Driven by CTest via -P; PROFILE/REPLAY/GOLDEN come in as
# -D definitions.
execute_process(
  COMMAND ${PROFILE} --engine --cycles 120000 --exec-tier superblock
          --record ${GOLDEN}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "record failed: ${rc}")
endif()

execute_process(COMMAND ${REPLAY} ${GOLDEN} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "identical replay failed: ${rc}")
endif()

execute_process(
  COMMAND ${REPLAY} ${GOLDEN} --exec-tier accurate --no-fast-forward
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cross-tier replay failed: ${rc}")
endif()

execute_process(
  COMMAND ${REPLAY} ${GOLDEN} --mutate flash_ws=6
          --divergence ${GOLDEN}.div.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "mutated replay should diverge (exit 1), got: ${rc}")
endif()

# A value the knob cannot take is a usage error (exit 2), never a replay
# of some other value: "abc" must not parse as 0, and 4294967302 must not
# wrap to 6.
foreach(bad abc 4294967302)
  execute_process(
    COMMAND ${REPLAY} ${GOLDEN} --mutate flash_ws=${bad}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--mutate flash_ws=${bad} should exit 2, got: ${rc}")
  endif()
endforeach()
