#!/bin/sh
# Zero and negative sizes must be rejected at flag parsing with a usage
# error (exit 1, "bad value for <flag>"), not reach the trainer, where a
# zero batch divides by zero and zero layers or dims fail internal checks.
#
#   cli_bad_values_test.sh path/to/layergcn_cli
cli="$1"
status=0
for arg in --batch=0 --batch=-3 --dim=0 --layers=0 --layers=-1; do
  flag="${arg%%=*}"
  err="$("${cli}" --dataset=games --scale=0.05 --epochs=1 "${arg}" 2>&1 >/dev/null)"
  code=$?
  if [ "${code}" -ne 1 ]; then
    echo "FAIL ${arg}: exit ${code}, want 1"
    status=1
  fi
  case "${err}" in
    *"bad value for ${flag}"*) ;;
    *) echo "FAIL ${arg}: no 'bad value for ${flag}' in: ${err}"; status=1 ;;
  esac
done
exit "${status}"
