# Numeric options parse whole: a value with trailing text, no digit, or
# more than its field holds is a usage error (exit 2) in every tool and
# bench, never a run with some other value. Driven by CTest via -P;
# FAULTCAMP/PROFILE/BENCH come in as -D definitions.
function(expect_usage_error)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "${cmd} should exit 2, got: ${rc}")
  endif()
endfunction()

expect_usage_error(${FAULTCAMP} --scenarios 2x --cycles 3000)
expect_usage_error(${FAULTCAMP} --jobs abc --scenarios 1 --cycles 3000)
expect_usage_error(${FAULTCAMP} --scenarios 4294967296 --cycles 3000)
expect_usage_error(${PROFILE} --engine --cycles 5000x)
expect_usage_error(${PROFILE} --engine --cycles 5000 --emem-kib 4194304)
expect_usage_error(${BENCH} --cycles 5000x)
expect_usage_error(${BENCH} --cycles 5000 --jobs 99999999999999999999)
