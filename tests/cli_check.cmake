# Command-line contract of the two CLIs, run by ctest as
#   cmake -DCLI=<binary> -DNAME=<program name> -DWORK=<scratch dir> -P cli_check.cmake
#
#   * --help prints "usage: <NAME>" on stdout and exits 0;
#   * --backend fft on a catalog file without --periodic-box exits 1 with an
#     error naming --periodic-box (both CLIs spell the box flag the same);
#   * the same run with --periodic-box is accepted;
#   * galactos --ranks 2 (the distributed pipeline) reports a nonzero wall
#     time;
#   * a negative --threads or --ranks (and, for galactos_dist_main on the
#     thread transport, --ranks 0) exits 1 with an error naming the flag;
#   * a choice flag takes one spelling per value: an unknown --halo-mode (and,
#     for galactos_dist_main, --overlap index or an unknown --policy) exits 1
#     with an error naming the valid choices;
#   * galactos --threads 1 --binary writes byte-identical .bin files on two
#     runs of the same catalog (the bitwise-reproducibility contract that
#     result comparisons across builds rely on).
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

if(NAME STREQUAL "galactos")
  run_cli(--input ${cat} --rmin 2 --rmax 8 --nbins 2 --lmax 2 --ranks 2
          --output cli_check_ranks)
  if(NOT rc EQUAL 0 OR NOT out MATCHES "wall [0-9]+\\.[0-9]+s"
     OR out MATCHES "wall 0\\.0+s")
    message(FATAL_ERROR
            "${NAME} --ranks 2: exit ${rc}, expected a nonzero wall time\n"
            "${out}${err}")
  endif()
endif()

# Negative counts are typos, not requests: both CLIs refuse them by name.
set(bad_flags --threads --ranks)
set(bad_values -3 -2)
if(NAME STREQUAL "galactos_dist_main")
  list(APPEND bad_flags --ranks)
  list(APPEND bad_values 0)
endif()
foreach(flag value IN ZIP_LISTS bad_flags bad_values)
  run_cli(--input ${cat} --rmin 2 --rmax 8 --nbins 2 --lmax 2 ${flag} ${value}
          --output cli_check_bad)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "${flag}")
    message(FATAL_ERROR
            "${NAME} ${flag} ${value}: exit ${rc}, expected 1 naming ${flag}\n"
            "${out}${err}")
  endif()
endforeach()

# Choice flags: the error lists what is accepted.
set(choice_flags --halo-mode)
set(choice_values full-shell)
set(choice_valid "full \\| let")
if(NAME STREQUAL "galactos_dist_main")
  list(APPEND choice_flags --overlap --policy)
  list(APPEND choice_values index bogus)
  list(APPEND choice_valid "two-pass \\| sequential" "pair \\| primary")
endif()
foreach(flag value valid IN ZIP_LISTS choice_flags choice_values choice_valid)
  run_cli(--input ${cat} --rmin 2 --rmax 8 --nbins 2 --lmax 2 ${flag} ${value}
          --output cli_check_choice)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "${flag} must be ${valid}")
    message(FATAL_ERROR
            "${NAME} ${flag} ${value}: exit ${rc}, expected 1 naming the "
            "valid choices\n${out}${err}")
  endif()
endforeach()

if(NAME STREQUAL "galactos")
  # One thread fixes every accumulation order: two runs must agree to the
  # byte.
  foreach(run a b)
    run_cli(--input ${cat} --rmin 2 --rmax 8 --nbins 2 --lmax 4 --threads 1
            --binary --output cli_check_repro_${run})
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${NAME} --threads 1 --binary: exit ${rc}\n"
                          "${out}${err}")
    endif()
  endforeach()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${WORK}/cli_check_repro_a.bin
                          ${WORK}/cli_check_repro_b.bin
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR
            "${NAME} --threads 1 --binary: two runs wrote different .bin "
            "files")
  endif()
endif()
