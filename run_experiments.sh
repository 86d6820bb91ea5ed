#!/bin/bash
# Runs every registered experiment (`cosmos_figure --list`), teeing each
# report to results/<name>.txt; each figure also writes results/<name>.json.
#
# Extra flags are forwarded to every figure — in particular `--jobs N`
# (or the COSMOS_JOBS env var) sets the worker-thread count for the
# grid-shaped experiments; by default they use all available cores.
#
# Not run here: `sampling_validation` (sampled-vs-full error accounting).
# Its default budget is paper-scale (24 M accesses/kernel, ~15 min) and it
# is run separately:
#   cargo run --release -p cosmos-experiments --bin cosmos_figure -- \
#     sampling_validation 2>&1 | tee results/sampling_validation.txt
#
# `--telemetry [DIR]` is handled here rather than forwarded verbatim:
# every figure gets the same export directory (default
# results/telemetry/) and writes its own <figure>.trace.json /
# <figure>.heatmap.json / <figure>.metrics.txt there. See README
# "Profiling a run".
#
# Interrupt/resume: on SIGINT the grid stops at the current figure's
# boundary and writes results/resume.json — a manifest of the figures
# that already completed. Re-running the script skips those and picks up
# where it left off; the manifest is removed once the grid finishes.
# (Mid-figure checkpointing for a single long simulation is `cosmos_serve
# ckpt`'s job; see README "Checkpointing and serving".)
set -u
cd "$(dirname "$0")"

RESUME_MANIFEST="results/resume.json"
INTERRUPTED=0
trap 'INTERRUPTED=1' INT

TELEMETRY=""
FWD=()
while [ $# -gt 0 ]; do
  case "$1" in
    --telemetry)
      if [ $# -gt 1 ] && [ "${2#--}" = "$2" ]; then
        TELEMETRY="$2"
        shift
      else
        TELEMETRY="results/telemetry"
      fi
      ;;
    *) FWD+=("$1") ;;
  esac
  shift
done
if [ -n "$TELEMETRY" ]; then
  mkdir -p "$TELEMETRY"
  FWD+=(--telemetry "$TELEMETRY")
fi
mkdir -p results

# Figures recorded as completed by an interrupted earlier invocation.
DONE=""
if [ -f "$RESUME_MANIFEST" ]; then
  DONE="$(tr -d '",[]{}' < "$RESUME_MANIFEST" | sed -n 's/^ *done: *//p')"
  if [ -n "$DONE" ]; then
    echo "resuming: skipping already-completed [$DONE ]"
  fi
fi

write_manifest() {
  # A tiny JSON manifest: which figures finished, so a re-run skips them.
  items=""
  for b in $1; do
    if [ -z "$items" ]; then items="\"$b\""; else items="$items, \"$b\""; fi
  done
  printf '{\n  "format": "cosmos-grid-resume",\n  "done": [%s]\n}\n' "$items" \
    > "$RESUME_MANIFEST.tmp"
  mv "$RESUME_MANIFEST.tmp" "$RESUME_MANIFEST"
}

figure() {
  cargo run --release -q -p cosmos-experiments --bin cosmos_figure -- "$@"
}
NAMES="$(figure --list | grep -vx sampling_validation)" || exit 1
for name in $NAMES; do
  case " $DONE " in
    *" $name "*)
      echo "=== $name (already done, skipped) ==="
      continue
      ;;
  esac
  if [ "$INTERRUPTED" -ne 0 ]; then
    break
  fi
  echo "=== $name ==="
  figure "$name" ${FWD[@]+"${FWD[@]}"} 2>&1 | tee "results/$name.txt"
  status=${PIPESTATUS[0]}
  echo
  if [ "$INTERRUPTED" -ne 0 ] || [ "$status" -gt 128 ]; then
    # Interrupted mid-figure: its artifact may be partial, so it is NOT
    # recorded as done — the resume re-runs it from scratch.
    INTERRUPTED=1
    break
  fi
  if [ "$status" -eq 0 ]; then
    DONE="$DONE $name"
    write_manifest "$DONE"
  fi
done

if [ "$INTERRUPTED" -ne 0 ]; then
  write_manifest "$DONE"
  echo "interrupted: wrote $RESUME_MANIFEST — re-run ./run_experiments.sh to resume"
  exit 130
fi
rm -f "$RESUME_MANIFEST"
