# CLI digest-label, override and report-usage regression (run with cmake -P;
# pass -DDCM_RUN=<binary>).
#
# `dcm_run run <scenario> --digest` must print the canonical
# registry-pinned result_digest of the single root-seed run — not a sweep
# digest over a derived seed — and must say which digest it is printing.
# The pinned values below are the ones registry_digest_test asserts.
if(NOT DEFINED DCM_RUN)
  message(FATAL_ERROR "pass -DDCM_RUN=<path to dcm_run>")
endif()

# dcm_run <args...> must exit 0 and print output matching `pattern`.
function(expect_dcm_run pattern)
  execute_process(
    COMMAND ${DCM_RUN} ${ARGN}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc
    ERROR_QUIET
    OUTPUT_STRIP_TRAILING_WHITESPACE)
  string(REPLACE ";" " " command "${ARGN}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dcm_run ${command} failed (rc=${rc})")
  endif()
  if(NOT out MATCHES "${pattern}")
    message(FATAL_ERROR "dcm_run ${command}: expected ${pattern}, got: ${out}")
  endif()
endfunction()

expect_dcm_run("^result_digest 8007654335316031933$" run quickstart --digest --quiet)
expect_dcm_run("^sweep_digest [0-9]+$"
               sweep quickstart --axis controller.kind=ec2,dcm --digest --quiet)
expect_dcm_run("^scorecard_digest [0-9]+$"
               tournament quickstart --controllers ec2,queueing --set run.duration=90
               --digest --quiet)

# A kind toggle drops the base keys that stop applying: fig5 under the ec2
# controller is exactly the fig5-ec2 registry run.
expect_dcm_run("^result_digest 3725650455189126203$"
               run fig5 --set controller.kind=ec2 --digest --quiet)
expect_dcm_run("^result_digest [0-9]+$"
               run chaos-resilience --set resilience.enabled=false --digest --quiet)
expect_dcm_run("^scorecard_digest [0-9]+$"
               tournament chaos-resilience --set resilience.enabled=false --digest --quiet)
expect_dcm_run("^result_digest 2825516737655928980$"
               run fig5 --trace --set trace.enabled=false --digest --quiet)

# --set splits at the first '=' only, so comma-valued keys pass through:
# fig5 plus both wrong-model triples is the ablation-wrong-models run.
expect_dcm_run("^result_digest 3915615181683623565$"
               run fig5 --set controller.app_model=2.84e-2,1e-4,7.075e-7
               --set controller.db_model=7.19e-3,1e-4,2.76953125e-7 --digest --quiet)

# `report` rejects an unknown figure with the usage exit code and lists the
# figures it knows.
execute_process(COMMAND ${DCM_RUN} report nosuchfig OUTPUT_QUIET ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 2 OR NOT err MATCHES
   "figures: fig2a, fig2b, table1, fig4, fig5, ablation, taxonomy, chaos")
  message(FATAL_ERROR "dcm_run report nosuchfig: expected exit 2 and the figure list, "
                      "got rc=${rc}: ${err}")
endif()

message(STATUS "dcm_run digest labels, overrides and report usage OK")
