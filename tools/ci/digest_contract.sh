#!/usr/bin/env bash
# Digest-contract gate. Each row of the table below is one dcm_run
# invocation plus a list of variants that must not change its result
# digest: worker-thread counts for sweeps and tournaments (completion order
# must never leak into results), tracing modes for single runs (observing a
# run must never perturb it). A row passes when every variant prints the
# same digest.
#
#   tools/ci/digest_contract.sh [--dcm-run PATH] [--only ROW[,ROW...]] [--jobs N]
#
# --dcm-run picks the binary (e.g. an ASan or TSan build), --only restricts
# the run to the named rows, --jobs sets the parallel variant's thread count
# (default: nproc). Exits non-zero on the first row whose variants disagree.
set -euo pipefail

dcm_run=./build/tools/dcm_run/dcm_run
only=""
jobs=$(nproc)
while [ $# -gt 0 ]; do
  case "$1" in
    --dcm-run) dcm_run=$2; shift 2 ;;
    --only) only=",$2,"; shift 2 ;;
    --jobs) jobs=$2; shift 2 ;;
    *) echo "usage: $0 [--dcm-run PATH] [--only ROW[,ROW...]] [--jobs N]" >&2; exit 2 ;;
  esac
done

# row | dcm_run arguments | variants (';'-separated, all must digest equal)
rows="
sweep        | sweep fig5 --set run.duration=120 --axis controller.kind=dcm,ec2 --axis run.max_vms=4,8 | --jobs 1;--jobs $jobs
chaos        | sweep chaos-resilience --set run.duration=120 --axis resilience.enabled=true,false --seed-policy fixed | --jobs 1;--jobs $jobs
trace        | run fig5 --set run.duration=60 | ;--trace;--trace-rate 0.25
chaos-trace  | run chaos-resilience --set run.duration=120 | ;--trace;--trace-rate 0.25
tournament   | tournament quickstart chaos-resilience --set run.duration=120 | --jobs 1;--jobs $jobs
topology     | sweep diamond-cache --axis workload.users=150,300 --axis run.max_vms=4,8 | --jobs 1;--jobs $jobs
fanout-retry | sweep fanout-join --set resilience.enabled=true --axis workload.users=150,300 | --jobs 1;--jobs $jobs
kind-toggle  | sweep chaos-resilience --set run.duration=120 --set resilience.enabled=false --axis controller.kind=dcm,ec2 | --jobs 1;--jobs $jobs
"

ran=0
while IFS='|' read -r name args variants; do
  name=$(echo "$name" | xargs)
  [ -z "$name" ] && continue
  case "$only" in "" | *",$name,"*) ;; *) continue ;; esac
  first=""
  IFS=';' read -ra variant_list <<< "$variants"
  for variant in "${variant_list[@]}"; do
    # shellcheck disable=SC2086  # args and variant are word lists
    digest=$("$dcm_run" $args $variant --digest --quiet)
    printf '%-13s %-20s %s\n' "$name" "[$(echo $variant)]" "$digest"
    if [ -z "$first" ]; then
      first=$digest
    elif [ "$digest" != "$first" ]; then
      echo "digest contract broken: row '$name' variant [$(echo $variant)]" >&2
      exit 1
    fi
  done
  ran=$((ran + 1))
done <<< "$rows"
[ "$ran" -gt 0 ] || { echo "no row matched --only${only:+ $only}" >&2; exit 2; }
echo "digest contract holds on $ran row(s)"
