# Runs EXE with the single argument ARG and fails unless it exits with
# status EXPECTED — a crash (e.g. std::terminate's SIGABRT) never matches.
#   cmake -DEXE=<binary> -DARG=<argument> -DEXPECTED=<code> -P expect_exit.cmake
execute_process(COMMAND ${EXE} ${ARG} RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "${EXE} ${ARG}: exit ${code}, want ${EXPECTED}\n${err}")
endif()
