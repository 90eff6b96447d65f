# cats_sweep --herd under the campaign flags: each herd block is built
# from the item its result was made from, so a cached run, cold or warm,
# prints the plain run's blocks, and the blocks of the three shards,
# interleaved a test at a time, are the unsharded run's blocks.
#
#   cmake -DCATS_SWEEP=... -DLITMUS_DIR=... -DWORK=... -P herd_with_campaign_flags.cmake

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

# Runs cats_sweep --quiet --herd over the corpus under SC and Power with
# the extra arguments, and fails unless it exits 0. OUT gets stdout.
function(herd out)
  execute_process(COMMAND ${CATS_SWEEP} --quiet --herd --models SC,Power
                          --jobs 4 ${ARGN} ${LITMUS_DIR}
                  OUTPUT_VARIABLE text ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cats_sweep --herd ${ARGN}: exit ${rc}\n${err}")
  endif()
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

herd(plain)
herd(cold --cache ${WORK}/cache)
herd(warm --cache ${WORK}/cache)
if(NOT cold STREQUAL plain)
  message(FATAL_ERROR "--herd with a cold --cache differs from the plain run")
endif()
if(NOT warm STREQUAL plain)
  message(FATAL_ERROR "--herd with a warm --cache differs from the plain run")
endif()

# The blocks of a listing as a list: each test's two blocks (one per
# model) in one element, with what a CMake list would misread escaped.
function(test_blocks out text)
  string(REPLACE "\\" "<bs>" text "${text}")
  string(REPLACE ";" "<sc>" text "${text}")
  string(REPLACE "[" "<lb>" text "${text}")
  string(REPLACE "]" "<rb>" text "${text}")
  string(REPLACE "\nModel Power\n" "\nModel Power\n;" text "${text}")
  list(FILTER text EXCLUDE REGEX "^$")
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

test_blocks(whole "${plain}")
list(LENGTH whole tests)
set(shards 0)
foreach(k 1 2 3)
  herd(text --shard ${k}/3)
  test_blocks(shard_${k} "${text}")
  list(LENGTH shard_${k} n)
  math(EXPR shards "${shards} + ${n}")
endforeach()
if(NOT shards EQUAL tests OR tests LESS 30)
  message(FATAL_ERROR "shards hold ${shards} tests' blocks, the whole run ${tests}")
endif()
set(interleaved)
math(EXPR last "${tests} - 1")
foreach(seq RANGE ${last})
  math(EXPR k "${seq} % 3 + 1")
  math(EXPR at "${seq} / 3")
  list(GET shard_${k} ${at} block)
  list(APPEND interleaved "${block}")
endforeach()
if(NOT interleaved STREQUAL whole)
  message(FATAL_ERROR "the shards' --herd blocks differ from the whole run's")
endif()
