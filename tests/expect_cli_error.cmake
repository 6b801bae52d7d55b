# Runs EXE with the space-separated ARGS and passes only when it exits
# 1 with an "error: ..." line on stderr: the contract every tool keeps
# for rejected command-line input.
#
#   cmake -DEXE=<binary> "-DARGS=<args>" -P expect_cli_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code EQUAL 1 OR NOT err MATCHES "(^|\n)error: ")
    message(FATAL_ERROR
        "expected exit 1 with an 'error: ' line on stderr; "
        "got exit ${code}, stderr:\n${err}")
endif()
