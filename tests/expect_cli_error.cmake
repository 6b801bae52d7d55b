# Runs EXE with the space-separated ARGS and passes only when it exits
# 1 with an "error: ..." line on stderr: the contract every tool keeps
# for rejected command-line input. With FORBID set, it also fails when
# stdout matches that regex, so a tool that reports the error only
# after doing the work it was asked for (a whole sweep) fails too.
#
#   cmake -DEXE=<binary> "-DARGS=<args>" ["-DFORBID=<regex>"]
#         -P expect_cli_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 1 OR NOT err MATCHES "(^|\n)error: ")
    message(FATAL_ERROR
        "expected exit 1 with an 'error: ' line on stderr; "
        "got exit ${code}, stderr:\n${err}")
endif()
if(NOT "${FORBID}" STREQUAL "" AND out MATCHES "${FORBID}")
    message(FATAL_ERROR
        "stdout matches '${FORBID}', which a rejected input must not "
        "reach; stdout:\n${out}")
endif()
