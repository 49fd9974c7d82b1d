# Source-level trace lint: src/core/trace.{h,cc} is the one trace
# facility. A CUBICLEOS_TRACE_* variable named anywhere else in src/ —
# in a getenv call or a string handed to one — is a second, ad-hoc
# trace, so the build rejects it.
#
# Usage: cmake -DSRC_DIR=<repo>/src -P trace_lint.cmake

if(NOT DEFINED SRC_DIR)
    message(FATAL_ERROR "trace_lint: pass -DSRC_DIR=<repo>/src")
endif()

file(GLOB_RECURSE lint_files "${SRC_DIR}/*.h" "${SRC_DIR}/*.cc")

set(violations "")
foreach(f IN LISTS lint_files)
    if(f STREQUAL "${SRC_DIR}/core/trace.cc")
        continue()
    endif()
    file(STRINGS "${f}" lines)
    set(lineno 0)
    foreach(line IN LISTS lines)
        math(EXPR lineno "${lineno} + 1")
        if(line MATCHES "\"CUBICLEOS_TRACE")
            string(APPEND violations "${f}:${lineno}: ${line}\n")
        endif()
    endforeach()
endforeach()

if(violations)
    message(FATAL_ERROR
        "CUBICLEOS_TRACE_* read outside core/trace.cc — add a TraceCat "
        "and call core::traceOn/trace instead:\n${violations}")
endif()
message(STATUS "trace_lint: scanned src/ — one trace facility")
