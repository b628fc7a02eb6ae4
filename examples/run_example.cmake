# Smoke-run one example: it must exit 0 and print MARKER on stdout.
#   cmake -DEXE=<example binary> -DMARKER=<text> -P run_example.cmake
execute_process(COMMAND ${EXE}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXE} exited with ${rc}\n${out}${err}")
endif()
string(FIND "${out}" "${MARKER}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${EXE} did not print \"${MARKER}\"\n${out}")
endif()
