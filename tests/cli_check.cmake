# Command-line contract of the two CLIs, run by ctest as
#   cmake -DCLI=<binary> -DNAME=<program name> -DWORK=<scratch dir> -P cli_check.cmake
#
#   * --help prints "usage: <NAME>" on stdout and exits 0;
#   * --backend fft on a catalog file without --periodic-box exits 1 with an
#     error naming --periodic-box (both CLIs spell the box flag the same);
#   * the same run with --periodic-box is accepted.
function(run_cli)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  WORKING_DIRECTORY ${WORK})
  set(rc "${rc}" PARENT_SCOPE)
  set(out "${out}" PARENT_SCOPE)
  set(err "${err}" PARENT_SCOPE)
endfunction()

file(MAKE_DIRECTORY ${WORK})
set(cat ${WORK}/cli_check_catalog.txt)
set(lines "")
foreach(i RANGE 1 40)
  math(EXPR x "(${i} * 7) % 40")
  math(EXPR y "(${i} * 13) % 40")
  math(EXPR z "(${i} * 29) % 40")
  string(APPEND lines "${x}.5 ${y}.25 ${z}.75\n")
endforeach()
file(WRITE ${cat} "${lines}")

run_cli(--help)
if(NOT rc EQUAL 0 OR NOT out MATCHES "usage: ${NAME}")
  message(FATAL_ERROR "${NAME} --help: exit ${rc}\n${out}${err}")
endif()

set(fft --backend fft --input ${cat} --rmin 2 --rmax 8 --nbins 2 --lmax 2
        --grid-n 16 --output cli_check)
run_cli(${fft})
if(NOT rc EQUAL 1 OR NOT err MATCHES "--periodic-box")
  message(FATAL_ERROR
          "${NAME} fft without a box: exit ${rc}, expected 1 naming "
          "--periodic-box\n${out}${err}")
endif()

run_cli(${fft} --periodic-box 40)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME} --periodic-box 40: exit ${rc}\n${out}${err}")
endif()
