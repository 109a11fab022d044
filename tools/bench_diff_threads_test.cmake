# bench_diff must refuse to compare kernel runs taken at different pool
# widths: feed it the committed reference against a copy whose `threads`
# header was changed, and expect exit 2 with an explanation.
file(READ ${REF} ref)
string(REGEX MATCH "\"threads\":([0-9]+)" field "${ref}")
if(NOT field)
  message(FATAL_ERROR "${REF} carries no threads header")
endif()
set(ref_threads ${CMAKE_MATCH_1})
math(EXPR other "${ref_threads} + 1")
string(REPLACE "${field}" "\"threads\":${other}" changed "${ref}")
set(copy ${WORK_DIR}/bench_diff_threads_copy.json)
file(WRITE ${copy} "${changed}")

execute_process(
  COMMAND ${BENCH_DIFF} --ref=${REF} --new=${copy}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
file(REMOVE ${copy})
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
          "threads ${ref_threads} vs ${other} exited ${rc}, expected 2:\n"
          "${out}\n${err}")
endif()
string(FIND "${err}" "threads mismatch" found)
if(found EQUAL -1)
  message(FATAL_ERROR "bench_diff did not explain the refusal:\n${err}")
endif()
