# Smoke-run one binary: it must exit 0 and print MARKER on stdout.
#   cmake -DEXE=<binary> -DMARKER=<text> [-DARGS="<arg> ..."]
#         -P run_example.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXE} exited with ${rc}\n${out}${err}")
endif()
string(FIND "${out}" "${MARKER}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${EXE} did not print \"${MARKER}\"\n${out}")
endif()
