# The CLIs give the same output at one worker and at four: tests are made
# (parsed or synthesized) on the workers and admitted in order, so only
# the line with the worker count and the wall time may differ.
#
#   cmake -DCATS_DIY=... -DCATS_SWEEP=... -DCATS_MINE=... -DLITMUS_DIR=...
#         -DWORK=... -P same_at_any_jobs.cmake

# Runs a tool at one and at four workers and fails unless stdout, with
# the lines matching DROP (when not empty) removed, and stderr agree.
function(same_at_any_jobs what drop)
  foreach(jobs 1 4)
    execute_process(COMMAND ${ARGN} --jobs ${jobs}
                    OUTPUT_VARIABLE out_${jobs} ERROR_VARIABLE err_${jobs}
                    RESULT_VARIABLE rc_${jobs})
    if(drop)
      string(REGEX REPLACE "${drop}[^\n]*\n" "" out_${jobs} "${out_${jobs}}")
    endif()
  endforeach()
  if(NOT rc_1 STREQUAL rc_4)
    message(FATAL_ERROR "${what}: exit ${rc_1} at one worker, ${rc_4} at four")
  endif()
  if(NOT out_1 STREQUAL out_4)
    message(FATAL_ERROR "${what}: outputs differ\n${out_1}\n---\n${out_4}")
  endif()
  if(NOT err_1 STREQUAL err_4)
    message(FATAL_ERROR "${what}: diagnostics differ\n${err_1}\n---\n${err_4}")
  endif()
endfunction()

same_at_any_jobs("cats_diy --size 5 --sweep" "swept "
                 ${CATS_DIY} --size 5 --sweep)

# The corpus files, then a diy slice: one staged sweep of two parts.
same_at_any_jobs("cats_mine over files and a diy slice" ""
                 ${CATS_MINE} ${LITMUS_DIR} --diy power --size 5
                 --models SC,Power)

# A directory with unparsable files among the catalogue's, filtered, with
# herd blocks: the load errors come in file order and the herd blocks
# keep their tests' final conditions.
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
file(GLOB tests ${LITMUS_DIR}/*.litmus)
file(COPY ${tests} DESTINATION ${WORK})
foreach(name a_broken m_broken z_broken)
  file(WRITE ${WORK}/${name}.litmus "Power ${name}\n{ }\nP0:\n  frob x\n")
endforeach()
same_at_any_jobs("cats_sweep --herd over unparsable files" "[0-9]+ tests x "
                 ${CATS_SWEEP} --models SC,Power --filter "^[^c]" --herd
                 ${WORK})
