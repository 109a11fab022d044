# CTest script driving the full lra_cli workflow.
function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

set(mtx ${WORK_DIR}/cli_test.mtx)
set(fact ${WORK_DIR}/cli_test.fact)
set(trace ${WORK_DIR}/cli_test_trace.json)
set(report ${WORK_DIR}/cli_test_report.jsonl)
run(${LRA_CLI} generate --preset=M1 --scale=0.08 --out=${mtx})
run(${LRA_CLI} info --mtx=${mtx})
run(${LRA_CLI} approx --mtx=${mtx} --method=ilut --tau=1e-2 --out=${fact})
run(${LRA_CLI} verify --mtx=${mtx} --fact=${fact})

# Observability path: traced simulated-distributed run + JSONL report.
run(${LRA_CLI} approx --mtx=${mtx} --tau=1e-2 --np=2 --trace=${trace}
    --report=${report})
foreach(f ${trace} ${report})
  if(NOT EXISTS ${f})
    message(FATAL_ERROR "expected output missing: ${f}")
  endif()
endforeach()
file(READ ${trace} trace_contents)
foreach(needle "\"traceEvents\"" "\"cat\":\"compute\"" "\"cat\":\"collective\"")
  string(FIND "${trace_contents}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "trace.json is missing ${needle}")
  endif()
endforeach()
file(STRINGS ${report} report_lines)
list(LENGTH report_lines nlines)
if(nlines LESS 3)
  message(FATAL_ERROR "report.jsonl has only ${nlines} lines")
endif()

# Fault-injection path: a benign plan must converge and print the fault
# summary line; a certain-flip plan must abort with a comm-fault status
# (the CLI still exits 0 — the status is the result, not an error).
execute_process(
  COMMAND ${LRA_CLI} approx --mtx=${mtx} --tau=1e-2 --np=2
          "--faults=seed=3;delay=0.5:8;dup=0.3"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "approx --faults (benign) failed (${rc}):\n${out}\n${err}")
endif()
string(FIND "${out}" "faults    : plan" found)
if(found EQUAL -1)
  message(FATAL_ERROR "benign fault run did not print the fault summary:\n${out}")
endif()
set(abort_trace ${WORK_DIR}/cli_test_abort_trace.json)
execute_process(
  COMMAND ${LRA_CLI} approx --mtx=${mtx} --tau=1e-2 --np=2 --faults=flip=1
          --trace=${abort_trace}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "approx --faults=flip=1 failed (${rc}):\n${out}\n${err}")
endif()
string(FIND "${out}" "comm-fault" found)
if(found EQUAL -1)
  message(FATAL_ERROR "flip=1 run did not report comm-fault:\n${out}")
endif()
# The aborted run must still flush a valid, analyzable trace: the profile
# analyzer re-reads it, rebuilds the DAG, and its conservation invariants
# must hold over the truncated [0, abort] timeline (exit 1 = violation).
if(NOT EXISTS ${abort_trace})
  message(FATAL_ERROR "aborted run did not flush its trace: ${abort_trace}")
endif()
file(READ ${abort_trace} abort_contents)
string(FIND "${abort_contents}" "\"traceEvents\"" found)
if(found EQUAL -1)
  message(FATAL_ERROR "aborted-run trace is not a Chrome trace:\n${abort_contents}")
endif()
run(${LRA_CLI} profile --trace=${abort_trace})

# Causal-profile path: --profile prints the attribution table and appends
# profile records to the report; the standalone analyzer reproduces the
# same profile from the trace file.
set(prof_report ${WORK_DIR}/cli_test_prof.jsonl)
execute_process(
  COMMAND ${LRA_CLI} approx --mtx=${mtx} --tau=1e-2 --np=2 --profile
          --trace=${trace} --report=${prof_report}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "approx --profile failed (${rc}):\n${out}\n${err}")
endif()
foreach(needle "conservation: ok" "what-if:" "critical path:")
  string(FIND "${out}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "--profile output is missing \"${needle}\":\n${out}")
  endif()
endforeach()
file(READ ${prof_report} prof_contents)
foreach(needle "\"type\":\"profile\"" "\"type\":\"profile_rank\""
        "\"type\":\"profile_phase\"" "\"whatif\"")
  string(FIND "${prof_contents}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "profile report is missing ${needle}")
  endif()
endforeach()
run(${LRA_CLI} profile --trace=${trace} --report=${prof_report})

# Repro path: a passing oracle config exits 0 via both spellings.
set(repro ${WORK_DIR}/cli_test_repro.json)
file(WRITE ${repro} "{\"matrix\": \"M1\", \"scale\": 0.25, \"method\": \"lu_crtp\", \"tau\": 0.01, \"block_size\": 8, \"nranks\": 2, \"faults\": \"seed=5;dup=0.4;flip=1\"}\n")
run(${LRA_CLI} repro --file=${repro})
run(${LRA_CLI} --repro=${repro})

# Kernel-variant leg: the same approximation computed with the naive and the
# simd-strict kernels must serialize to byte-identical factor files (randqb
# and lu cover the GEMM-heavy and the Schur-update paths end to end;
# simd-strict is the vectorized variant whose contract is bitwise identity
# with naive — `simd` is only ULP-comparable and is gated in bench_kernels
# instead).
foreach(method randqb lu)
  set(fact_naive ${WORK_DIR}/cli_test_${method}_naive.fact)
  set(fact_strict ${WORK_DIR}/cli_test_${method}_simd-strict.fact)
  run(${LRA_CLI} approx --mtx=${mtx} --method=${method} --tau=1e-2
      --kernel-variant=naive --out=${fact_naive})
  run(${LRA_CLI} approx --mtx=${mtx} --method=${method} --tau=1e-2
      --kernel-variant=simd-strict --out=${fact_strict})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${fact_naive} ${fact_strict}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "${method}: naive and simd-strict kernel variants produced "
            "different factor files (${fact_naive} vs ${fact_strict})")
  endif()
  file(REMOVE ${fact_naive} ${fact_strict})
endforeach()

# One body per method: a sequential solve is the SPMD body run as one rank,
# so for every method the factor files must be byte-identical across pool
# widths and identical to the --np=1 run; a block size of 0 must be rejected
# with an error (it used to hang RandQB_EI and RandUBV).
foreach(method randqb ubv lu ilut)
  set(fact_t1 ${WORK_DIR}/cli_test_${method}_t1.fact)
  run(${LRA_CLI} approx --mtx=${mtx} --method=${method} --tau=1e-2
      --threads=1 --out=${fact_t1})
  foreach(leg "--threads=4" "--np=1")
    set(fact_leg ${WORK_DIR}/cli_test_${method}_leg.fact)
    run(${LRA_CLI} approx --mtx=${mtx} --method=${method} --tau=1e-2 ${leg}
        --out=${fact_leg})
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files ${fact_t1} ${fact_leg}
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${method}: ${leg} changed the factor file "
                          "(${fact_t1} vs ${fact_leg})")
    endif()
    file(REMOVE ${fact_leg})
  endforeach()
  file(REMOVE ${fact_t1})

  execute_process(
    COMMAND ${LRA_CLI} approx --mtx=${mtx} --method=${method} --k=0
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 60)
  if(NOT rc MATCHES "^[1-9][0-9]*$")
    message(FATAL_ERROR "${method} --k=0 did not fail cleanly (${rc}):\n${err}")
  endif()
  string(FIND "${err}" "block size must be >= 1" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${method} --k=0 did not explain itself:\n${err}")
  endif()
endforeach()

# Autotune leg: `tune` writes a schema-valid cache that the next invocation
# picks up from $LRA_AUTOTUNE_CACHE (any valid geometry must leave the
# factors byte-identical — the config is a pure perf knob).
set(tune_cache ${WORK_DIR}/cli_test_autotune.json)
run(${LRA_CLI} tune --quick --reps=1 --gemm-n=96 --out=${tune_cache})
file(READ ${tune_cache} tune_contents)
string(FIND "${tune_contents}" "lra_autotune/v1" found)
if(found EQUAL -1)
  message(FATAL_ERROR "tune cache is missing the schema tag:\n${tune_contents}")
endif()
set(fact_default ${WORK_DIR}/cli_test_tuned_default.fact)
set(fact_tuned ${WORK_DIR}/cli_test_tuned_cache.fact)
run(${LRA_CLI} approx --mtx=${mtx} --method=randqb --tau=1e-2
    --kernel-variant=simd --out=${fact_default})
set(ENV{LRA_AUTOTUNE_CACHE} ${tune_cache})
run(${LRA_CLI} approx --mtx=${mtx} --method=randqb --tau=1e-2
    --kernel-variant=simd --out=${fact_tuned})
unset(ENV{LRA_AUTOTUNE_CACHE})
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${fact_default} ${fact_tuned}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "autotune cache changed the simd factor bits "
          "(${fact_default} vs ${fact_tuned})")
endif()
file(REMOVE ${fact_default} ${fact_tuned} ${tune_cache})

# A bad variant must be rejected with the usage exit code, not run; so must
# the retired `blocked` spelling.
foreach(bad fast blocked)
  execute_process(
    COMMAND ${LRA_CLI} approx --mtx=${mtx} --tau=1e-2 --kernel-variant=${bad}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "--kernel-variant=${bad} exited ${rc}, expected 2:\n${err}")
  endif()
  string(FIND "${err}" "expected naive|simd|simd-strict)" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
            "--kernel-variant=${bad} did not explain itself:\n${err}")
  endif()
endforeach()
# The environment spelling is not fatal (it may be set machine-wide): the
# retired name warns with the accepted list and falls back to simd.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env LRA_KERNEL_VARIANT=blocked
          ${LRA_CLI} approx --mtx=${mtx} --tau=1e-2
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${err}" "(naive|simd|simd-strict); using simd" found)
if(NOT rc EQUAL 0 OR found EQUAL -1)
  message(FATAL_ERROR "LRA_KERNEL_VARIANT=blocked (${rc}):\n${err}")
endif()

# Invalid solver options are rejected by lra::validate() with the usage exit
# code before any work starts: they used to run to full rank (tau), be
# accepted (power) or silently run sequentially (np).
foreach(bad "--tau=nan" "--tau=-1" "--p=-1" "--p=4294967297" "--np=-3")
  execute_process(
    COMMAND ${LRA_CLI} approx --mtx=${mtx} ${bad}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 60)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "approx ${bad} exited ${rc}, expected 2:\n${out}${err}")
  endif()
  string(FIND "${err}" "error: invalid option:" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "approx ${bad} did not explain itself:\n${err}")
  endif()
endforeach()
set(bad_repro ${WORK_DIR}/cli_test_bad_repro.json)
file(WRITE ${bad_repro} "{\"method\": \"lu_crtp\", \"tau\": -1}\n")
execute_process(
  COMMAND ${LRA_CLI} repro --file=${bad_repro}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 60)
file(REMOVE ${bad_repro})
string(FIND "${err}" "tau must be >= 0" found)
if(NOT rc EQUAL 2 OR found EQUAL -1)
  message(FATAL_ERROR "repro with tau=-1 exited ${rc}, expected 2:\n${err}")
endif()

# --threads=0 must not be UB: the CLI warns on stderr and runs on 1 worker.
execute_process(
  COMMAND ${LRA_CLI} approx --mtx=${mtx} --tau=1e-2 --threads=0 --out=${fact}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "approx --threads=0 failed (${rc}):\n${out}\n${err}")
endif()
string(FIND "${err}" "falling back to 1" found)
if(found EQUAL -1)
  message(FATAL_ERROR "--threads=0 did not warn on stderr; got:\n${err}")
endif()
string(FIND "${out}" "threads   : 1" found)
if(found EQUAL -1)
  message(FATAL_ERROR "--threads=0 did not report 1 worker; got:\n${out}")
endif()

# Malformed Matrix Market input is an error with a message and a nonzero
# exit, never a crash: an entry outside the declared shape (this segfaulted
# in Release builds), a header nz above m * n (this died in reserve()), a
# non-finite value (this was "truncated value") and a header dimension above
# the reader's bound (this died with std::bad_alloc).
set(bad_mtx ${WORK_DIR}/cli_test_bad.mtx)
foreach(case "3 3 2\n1 1 1.0\n9 2 2.0\n|is outside the 3x3 matrix"
             "3 3 999999999999\n1 1 1.0\n|exceeds the 3x3 matrix capacity"
             "2 2 2\n1 1 1.0\n2 2 inf\n|entry 2: non-finite value"
             "1 999999999999 0\n|exceed the maximum 67108864")
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 body)
  list(GET parts 1 expect)
  file(WRITE ${bad_mtx}
       "%%MatrixMarket matrix coordinate real general\n${body}")
  execute_process(
    COMMAND ${LRA_CLI} approx --mtx=${bad_mtx} --tau=1e-2
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 60)
  if(NOT rc MATCHES "^[1-9][0-9]*$")
    message(FATAL_ERROR "bad .mtx (${expect}) did not fail cleanly (${rc}):\n${err}")
  endif()
  string(FIND "${err}" "${expect}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "bad .mtx did not explain itself (${expect}):\n${err}")
  endif()
endforeach()
file(REMOVE ${bad_mtx})

file(REMOVE ${mtx} ${fact} ${trace} ${report} ${repro} ${abort_trace}
     ${prof_report})
