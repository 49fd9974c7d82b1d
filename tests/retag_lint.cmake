# Source-level retag lint: Monitor::retagSweep (src/core/monitor.cc)
# is the one place outside the simulated hardware that commits an MPK
# tag. Every sweep, fault grant and undo goes through it, so its
# owner-intersection and chunking rules cannot be hand-copied and
# drift. A setKeyRange( or setKey( call anywhere else in src/ outside
# hw/ is a second retag path, so the build rejects it.
#
# Usage: cmake -DSRC_DIR=<repo>/src -P retag_lint.cmake

if(NOT DEFINED SRC_DIR)
    message(FATAL_ERROR "retag_lint: pass -DSRC_DIR=<repo>/src")
endif()

file(GLOB_RECURSE lint_files "${SRC_DIR}/*.h" "${SRC_DIR}/*.cc")

set(violations "")
set(helper_found FALSE)
foreach(f IN LISTS lint_files)
    if(f MATCHES "^${SRC_DIR}/hw/")
        continue()
    endif()
    # Split on newlines ourselves: CMake list splitting would merge
    # lines across an unbalanced '[' and unescape a trailing '\'.
    file(READ "${f}" text)
    string(REGEX REPLACE "[][;\\]" "_" text "${text}")
    string(REPLACE "\n" ";" lines "${text}")
    set(lineno 0)
    set(in_helper FALSE)
    foreach(line IN LISTS lines)
        math(EXPR lineno "${lineno} + 1")
        # The helper's definition runs from its signature line to the
        # first closing brace in column 0.
        if(f STREQUAL "${SRC_DIR}/core/monitor.cc"
           AND line MATCHES "^Monitor::retagSweep\\(")
            set(in_helper TRUE)
            set(helper_found TRUE)
        elseif(in_helper AND line STREQUAL "}")
            set(in_helper FALSE)
        endif()
        if(NOT in_helper AND line MATCHES "setKey(Range)?\\(")
            string(APPEND violations "${f}:${lineno}: ${line}\n")
        endif()
    endforeach()
endforeach()

if(NOT helper_found)
    message(FATAL_ERROR
        "retag_lint: Monitor::retagSweep not found in core/monitor.cc")
endif()
if(violations)
    message(FATAL_ERROR
        "tag commit outside Monitor::retagSweep — route the retag "
        "through the helper:\n${violations}")
endif()
message(STATUS "retag_lint: scanned src/ — one retag sweep")
