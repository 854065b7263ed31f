#!/bin/sh
# Zero and negative sizes, and values that do not fit the flag's integer
# type, must be rejected at flag parsing with a usage error (exit 1, "bad
# value for <flag>"), not reach the trainer, where a zero batch divides by
# zero, zero layers or dims fail internal checks, and a value past the
# type's range would wrap (--layers=4294967297 would train 1 layer).
#
#   cli_bad_values_test.sh path/to/layergcn_cli
cli="$1"
status=0
for arg in --batch=0 --batch=-3 --dim=0 --layers=0 --layers=-1 \
    --layers=4294967297 --dim=4294967304; do
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
