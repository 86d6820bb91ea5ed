#!/bin/bash
# Full local gate: formatting, release build, all workspace tests, clippy
# with warnings denied, rustdoc, and the end-to-end identity and
# determinism smokes — what CI runs, in one command.
#
# Every block announces itself through `stage <name>`, so a failure log
# always shows which named stage died, and the final summary line counts
# the stages and echoes perfbench's host rates (information, not a gate).
set -eu
cd "$(dirname "$0")/.."

# Every stage's temporary files and directories live under one per-run
# root, removed on any exit, so a failing stage leaves nothing behind.
tmp_root="$(mktemp -d)"
trap 'rm -rf "$tmp_root"' EXIT
tmp() { mktemp -p "$tmp_root" "$@"; }

STAGE_COUNT=0
stage() {
    STAGE_COUNT=$((STAGE_COUNT + 1))
    echo "check.sh: stage $STAGE_COUNT: $1"
}

# Every experiment runs through the figure registry's one entry point.
figure() {
    cargo run --release -q -p cosmos-experiments --bin cosmos_figure -- "$@"
}

stage fmt
cargo fmt --all -- --check

stage build
cargo build --release

# The tests run with an empty TMPDIR of their own, which they must leave
# empty: a test that leaves a file or directory behind fails the stage.
# They include the source rules clippy cannot express (tests/source_rules.rs,
# DESIGN.md §12/§17): expect messages that state an invariant, and no
# leftover pragma comment of the retired hot-path rules.
stage test
test_tmp="$(tmp -d)"
TMPDIR="$test_tmp" cargo test -q --workspace
leftovers="$(ls -A "$test_tmp")"
[ -z "$leftovers" ] || {
    echo "check.sh: the test run left files in its TMPDIR:" >&2
    echo "$leftovers" >&2
    exit 1
}

# The benchmark of record (perfbench/README.md), a package outside the
# workspace that the stages above never build. Its self-tests drive the
# public APIs it depends on (`CounterStore`, `Workload::generate`,
# `SecurePath`). Then, per workload, two untraced 1 s runs in separate
# processes must report byte-identical simulated metrics, and a traced run
# must pass every layer replay's check against `SimStats`. Host rates are
# echoed in the summary line for information only: they swing by ±20% on
# shared hosts, so this stage does not gate on them.
stage perfbench
cargo test -q --offline --manifest-path perfbench/Cargo.toml
bench_dir="$(tmp -d)"
bench() { # <workload> <trace 0|1> <output>: must exit 0 with no failed check
    python3 perfbench/run.py --workload "$1" --seed 1 --seconds 1 --trace "$2" >"$3" &&
        tail -n 1 "$3" | grep -q '"failed": 0,' || {
        echo "check.sh: perfbench $1 --trace $2 failed" >&2
        cat "$3" >&2
        exit 1
    }
}
# The simulated metrics of a run's JSON result line, one per line.
simulated() { tail -n 1 "$1" | grep -oE '"cosmos_(speedup|ctr_miss_rate)": \{"value": [^,]*'; }
bench_rates=""
for w in graph_sweep secure_mcf; do
    bench "$w" 0 "$bench_dir/a"
    bench "$w" 0 "$bench_dir/b"
    [ "$(simulated "$bench_dir/a" | wc -l)" -eq 2 ] &&
        diff <(simulated "$bench_dir/a") <(simulated "$bench_dir/b") >&2 || {
        echo "check.sh: perfbench $w simulated metrics differ between runs" >&2
        exit 1
    }
    bench "$w" 1 "$bench_dir/t"
    rate="$(tail -n 1 "$bench_dir/a" | grep -oE '"accesses_per_sec": \{"value": [^,]*' |
        awk '{ printf "%.2f", $NF / 1e6 }')"
    bench_rates="$bench_rates${bench_rates:+, }$w $rate M/s"
done

stage clippy
# Every `unsafe` block must carry a `// SAFETY:` comment saying why it is
# sound. Test targets may use hash maps, clocks, locks and threads
# (reference models, harness timing), so the clippy.toml bans are off for
# them here.
cargo clippy -q --workspace --all-targets -- -D warnings -D clippy::undocumented_unsafe_blocks \
    -A clippy::disallowed_types -A clippy::disallowed_methods
# Library and binary code (DESIGN.md §12), `#[cfg(test)]` excluded:
# - clippy.toml's disallowed types and methods: no hash-ordered
#   collections, wall-clock reads, ad-hoc threads, or lock types
#   (`std::sync::{Mutex, RwLock, Condvar, Barrier}`: the per-access path
#   takes no lock, telemetry hooks included; the telemetry pipeline's
#   phase-span and stream-table locks and serve's locks carry one
#   `#[expect]` per lock site);
# - no `unwrap()` and no panic-family macro;
# - stat modules deny narrowing casts themselves
#   (`#![deny(clippy::cast_possible_truncation)]`);
# - every waiver is an `#[expect(.., reason = "..")]`: a misspelled lint
#   name, an expectation nothing fulfils, or an allow without a reason
#   fails.
cargo clippy -q --workspace --lib --bins -- -D warnings -D clippy::undocumented_unsafe_blocks \
    -D clippy::disallowed_types -D clippy::disallowed_methods \
    -D clippy::unwrap_used -D clippy::panic -D clippy::unreachable -D clippy::todo \
    -D clippy::unimplemented -D clippy::allow_attributes_without_reason \
    -D unknown_lints -D unfulfilled_lint_expectations

# Rustdoc with warnings denied: every intra-doc link must resolve, and
# public docs must not link to private items.
stage doc
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

# Sampled-mode smoke: the validation harness end-to-end at a tiny budget
# (exercises plan building, warmup/priming, and the weighted merge; the
# accuracy/reduction targets only apply at its default paper-scale budget).
# --json redirects the result document so the committed default-budget
# results/sampling_validation.json is left alone.
stage sampling-smoke
smoke_json="$(tmp)"
figure sampling_validation --accesses 120000 --jobs 2 --json "$smoke_json" >/dev/null

# Checked-mode smoke: the oracles must observe without perturbing — the
# same grid with and without --check has to emit byte-identical artifacts.
stage check-identity
plain_json="$(tmp)"
checked_json="$(tmp)"
figure fig02 --accesses 20000 --jobs 2 --json "$plain_json" >/dev/null
figure fig02 --accesses 20000 --jobs 2 --check --json "$checked_json" >/dev/null
cmp "$plain_json" "$checked_json" || {
    echo "check.sh: --check perturbed the fig02 artifact" >&2
    exit 1
}
# Same identity on the full design grid (fig10): the event-driven stepping
# core must produce byte-identical artifacts whether or not the shadow
# models are watching every access.
f10_plain="$(tmp)"
f10_checked="$(tmp)"
figure fig10 --accesses 20000 --jobs 2 --json "$f10_plain" >/dev/null
figure fig10 --accesses 20000 --jobs 2 --check --json "$f10_checked" >/dev/null
cmp "$f10_plain" "$f10_checked" || {
    echo "check.sh: --check perturbed the fig10 artifact" >&2
    exit 1
}
# Sampled fig10 must not depend on the worker count: every representative
# window goes through the leaf-walk estimator, and the weighted merge has
# to produce the same bytes (artifact and printed table) at any --jobs.
f10s_a="$(tmp)"
f10s_b="$(tmp)"
f10s_out_a="$(tmp)"
f10s_out_b="$(tmp)"
figure fig10 --sample --accesses 200000 --jobs 1 --json "$f10s_a" >"$f10s_out_a"
figure fig10 --sample --accesses 200000 --jobs 2 --json "$f10s_b" >"$f10s_out_b"
cmp "$f10s_a" "$f10s_b" || {
    echo "check.sh: sampled fig10 artifact depends on --jobs" >&2
    exit 1
}
cmp "$f10s_out_a" "$f10s_out_b" || {
    echo "check.sh: sampled fig10 report depends on --jobs" >&2
    exit 1
}

# Every registered figure, serial vs. parallel under the oracles and
# telemetry: the --jobs 1 and --jobs 2 --check --telemetry runs must print
# and emit the same bytes (telemetry also panics on a repeated job label,
# since per-job counters are keyed by label), and the checked run's stderr
# must carry no oracle finding (every finding line starts `verify[`).
stage figure-modes
modes_dir="$(tmp -d)"
names="$(figure --list)"
for name in $names; do
    figure "$name" --accesses 20000 --jobs 1 \
        --json "$modes_dir/serial.json" >"$modes_dir/serial.txt"
    figure "$name" --accesses 20000 --jobs 2 --check --telemetry "$modes_dir/tele" \
        --json "$modes_dir/checked.json" >"$modes_dir/checked.txt" 2>"$modes_dir/checked.err" || {
        cat "$modes_dir/checked.err" >&2
        exit 1
    }
    if grep -q '^verify\[' "$modes_dir/checked.err"; then
        echo "check.sh: $name has oracle findings under --check:" >&2
        cat "$modes_dir/checked.err" >&2
        exit 1
    fi
    cmp "$modes_dir/serial.json" "$modes_dir/checked.json" || {
        echo "check.sh: $name artifact differs between --jobs 1 and --jobs 2 --check --telemetry" >&2
        exit 1
    }
    cmp "$modes_dir/serial.txt" "$modes_dir/checked.txt" || {
        echo "check.sh: $name report differs between --jobs 1 and --jobs 2 --check --telemetry" >&2
        exit 1
    }
done

# Telemetry identity smoke: --telemetry must also observe without
# perturbing — same grid, same seed, byte-identical result artifact —
# and the exported trace/heatmap/metrics files must exist and carry the
# expected structure: one `<job label>/<stat leaf>` counter per job, with
# the same heatmap and non-phase metrics lines whatever the worker count.
stage telemetry-identity
tele_json="$(tmp)"
tele_dir="$(tmp -d)"
tele_serial="$(tmp -d)"
figure fig02 --accesses 20000 --jobs 1 --telemetry "$tele_serial" --json "$tele_json" >/dev/null
figure fig02 --accesses 20000 --jobs 2 --telemetry "$tele_dir" --json "$tele_json" >/dev/null
cmp "$plain_json" "$tele_json" || {
    echo "check.sh: --telemetry perturbed the fig02 artifact" >&2
    exit 1
}
for f in fig02.trace.json fig02.heatmap.json fig02.metrics.txt; do
    [ -s "$tele_dir/$f" ] || {
        echo "check.sh: telemetry export missing $f" >&2
        exit 1
    }
done
# The trace is written one event at a time; it must still be one JSON
# document.
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$tele_dir/fig02.trace.json" || {
    echo "check.sh: fig02.trace.json is not valid JSON" >&2
    exit 1
}
grep -q '"ph":"M"' "$tele_dir/fig02.trace.json" || {
    echo "check.sh: fig02.trace.json has no Chrome trace metadata events" >&2
    exit 1
}
# Job labels are the trace's thread names (tid 0 is the unscoped handle).
labels="$(grep -o '"tid":[1-9][0-9]*,"args":{"name":"[^"]*"' "$tele_dir/fig02.trace.json" \
    | sed 's/.*"name":"//; s/"$//')"
[ -n "$labels" ] || {
    echo "check.sh: fig02.trace.json names no job streams" >&2
    exit 1
}
for label in $labels; do
    grep -qF "counter $label/ctr_cache.demand.hits " "$tele_dir/fig02.metrics.txt" || {
        echo "check.sh: fig02.metrics.txt has no CTR hit counter for job $label" >&2
        exit 1
    }
done
# Each job's probe publishes plain per-job data, so everything but the
# wall-clock phase timings is independent of the worker count.
cmp <(grep -v '^phase ' "$tele_dir/fig02.metrics.txt") \
    <(grep -v '^phase ' "$tele_serial/fig02.metrics.txt") || {
    echo "check.sh: fig02 telemetry metrics depend on --jobs" >&2
    exit 1
}
cmp "$tele_dir/fig02.heatmap.json" "$tele_serial/fig02.heatmap.json" || {
    echo "check.sh: fig02 telemetry heatmap depends on --jobs" >&2
    exit 1
}
grep -q '"windows"' "$tele_dir/fig02.heatmap.json" || {
    echo "check.sh: fig02.heatmap.json has no occupancy windows" >&2
    exit 1
}

# Differential fuzzing at a fixed seed: a bounded pass over random
# configurations x synthetic traces through the shadow models and the
# invariant catalogue (~30 s; failures shrink to results/*.json repros).
stage fuzz
cargo run --release -q -p cosmos-verify --bin verify_fuzz -- \
    --seed 1 --cases 16 --accesses 5000 >/dev/null

# Snapshot/restore identity smoke (DESIGN.md §14): an uninterrupted
# 200k-access run and a stop-at-100k-then-resume run of the same
# design x workload must emit byte-identical result artifacts, with both
# legs of the interrupted run green under the cosmos-verify oracles
# (--check errors out if any shadow model diverges; the resumed leg's
# shadows are primed from the snapshot). Covers a fig02-style scheme
# config (MorphCtr) and the fig10 full design (COSMOS).
stage snapshot-restore
ckpt_dir="$(tmp -d)"
for design in MorphCtr COSMOS; do
    cargo run --release -q -p cosmos-serve --bin cosmos_serve -- ckpt \
        --design "$design" --workload bfs --accesses 200000 \
        --snapshot "$ckpt_dir/$design.full.snap.json" \
        --json "$ckpt_dir/$design.full.json"
    cargo run --release -q -p cosmos-serve --bin cosmos_serve -- ckpt \
        --design "$design" --workload bfs --accesses 200000 --check \
        --stop-after 100000 --snapshot "$ckpt_dir/$design.snap.json"
    cargo run --release -q -p cosmos-serve --bin cosmos_serve -- ckpt \
        --design "$design" --workload bfs --accesses 200000 --check \
        --snapshot "$ckpt_dir/$design.snap.json" \
        --json "$ckpt_dir/$design.resumed.json"
    cmp "$ckpt_dir/$design.full.json" "$ckpt_dir/$design.resumed.json" || {
        echo "check.sh: snapshot restore diverged from uninterrupted run ($design)" >&2
        exit 1
    }
done

# Serve-mode smoke: three figure jobs through the NDJSON protocol must
# produce artifacts byte-identical to the same figures run through
# cosmos_figure (both share the figure registry, so any drift here means
# the registry wiring broke).
stage serve
serve_dir="$(tmp -d)"
printf '%s\n' \
    '{"op":"submit","job":{"type":"figure","figure":"fig02","accesses":20000}}' \
    '{"op":"submit","job":{"type":"figure","figure":"fig10","accesses":20000}}' \
    '{"op":"submit","job":{"type":"figure","figure":"fig11","accesses":20000}}' \
    | cargo run --release -q -p cosmos-serve --bin cosmos_serve -- serve \
        --state "$serve_dir" --jobs 2 >/dev/null
while read -r id name; do
    ref="$(tmp)"
    figure "$name" --accesses 20000 --jobs 1 --json "$ref" >/dev/null
    cmp "$serve_dir/job-$id.json" "$ref" || {
        echo "check.sh: serve artifact job-$id.json diverges from cosmos_figure $name" >&2
        exit 1
    }
done <<'JOBS'
1 fig02
2 fig10
3 fig11
JOBS

# Kill-and-resume smoke: shut the server down with sim jobs still in
# flight (single worker, immediate shutdown), then --resume must finish
# everything — done jobs are not re-run (covered deterministically by
# the cosmos-serve unit tests), preempted ones continue from their
# snapshot — and the artifacts must match a fresh uninterrupted run.
stage serve-resume
resume_dir="$(tmp -d)"
printf '%s\n' \
    '{"op":"submit","job":{"type":"sim","design":"NP","workload":"bfs","accesses":40000,"snapshot_every":5000}}' \
    '{"op":"submit","job":{"type":"sim","design":"COSMOS","workload":"pr","accesses":40000,"snapshot_every":5000}}' \
    '{"op":"shutdown"}' \
    | cargo run --release -q -p cosmos-serve --bin cosmos_serve -- serve \
        --state "$resume_dir" --jobs 1 >/dev/null
cargo run --release -q -p cosmos-serve --bin cosmos_serve -- serve \
    --resume "$resume_dir" --jobs 1 >/dev/null </dev/null
[ "$(grep -c '"state": "done"' "$resume_dir/manifest.json")" -eq 2 ] || {
    echo "check.sh: resumed server did not finish both sim jobs" >&2
    cat "$resume_dir/manifest.json" >&2
    exit 1
}
while read -r id design workload; do
    ref_dir="$(tmp -d)"
    cargo run --release -q -p cosmos-serve --bin cosmos_serve -- ckpt \
        --design "$design" --workload "$workload" --accesses 40000 \
        --snapshot "$ref_dir/ref.snap.json" --json "$ref_dir/ref.json"
    cmp "$resume_dir/job-$id.json" "$ref_dir/ref.json" || {
        echo "check.sh: resumed job-$id.json diverges from a fresh $workload/$design run" >&2
        exit 1
    }
done <<'JOBS'
1 NP bfs
2 COSMOS pr
JOBS

# Attribution smoke (DESIGN.md §15): the explain_ctr report and artifact
# must be deterministic — byte-identical across repeat runs and across
# --jobs — and every stream's class counts must sum exactly to its
# sampled miss count (the conservation law; the report prints one
# grep-able "conservation ... (ok)" line per stream and says VIOLATED on
# any mismatch).
stage explain-determinism
exp_a="$(tmp)"
exp_b="$(tmp)"
exp_c="$(tmp)"
exp_rep_a="$(tmp)"
exp_rep_b="$(tmp)"
figure explain_ctr --accesses 20000 --jobs 1 --json "$exp_a" >"$exp_rep_a"
figure explain_ctr --accesses 20000 --jobs 1 --json "$exp_b" >/dev/null
figure explain_ctr --accesses 20000 --jobs 4 --json "$exp_c" >"$exp_rep_b"
cmp "$exp_a" "$exp_b" || {
    echo "check.sh: explain_ctr artifact differs between identical runs" >&2
    exit 1
}
cmp "$exp_a" "$exp_c" || {
    echo "check.sh: explain_ctr artifact depends on --jobs" >&2
    exit 1
}
cmp "$exp_rep_a" "$exp_rep_b" || {
    echo "check.sh: explain_ctr report depends on --jobs" >&2
    exit 1
}
grep -q 'sampled misses (ok)' "$exp_rep_a" || {
    echo "check.sh: explain_ctr report has no conservation lines" >&2
    exit 1
}
if grep -q 'VIOLATED' "$exp_rep_a"; then
    echo "check.sh: explain_ctr conservation law violated" >&2
    exit 1
fi

# Occupancy-channel smoke (DESIGN.md §16): the channel_occupancy figure
# must be byte-identical across --jobs and under --check (which runs the
# shadow oracles on every cell — the keyed-randomized and
# skewed-associative index variants included), and a serve-mode job must
# reproduce cosmos_figure's artifact exactly through the shared registry.
stage occupancy-channel
chan_a="$(tmp)"
chan_b="$(tmp)"
chan_c="$(tmp)"
figure channel_occupancy --accesses 30000 --jobs 1 --json "$chan_a" >/dev/null
figure channel_occupancy --accesses 30000 --jobs 4 --json "$chan_b" >/dev/null
figure channel_occupancy --accesses 30000 --jobs 2 --check --json "$chan_c" >/dev/null
cmp "$chan_a" "$chan_b" || {
    echo "check.sh: channel_occupancy artifact depends on --jobs" >&2
    exit 1
}
cmp "$chan_a" "$chan_c" || {
    echo "check.sh: --check perturbed the channel_occupancy artifact" >&2
    exit 1
}
chan_serve="$(tmp -d)"
printf '%s\n' \
    '{"op":"submit","job":{"type":"figure","figure":"channel_occupancy","accesses":30000}}' \
    | cargo run --release -q -p cosmos-serve --bin cosmos_serve -- serve \
        --state "$chan_serve" --jobs 1 >/dev/null
cmp "$chan_serve/job-1.json" "$chan_a" || {
    echo "check.sh: serve channel_occupancy artifact diverges from cosmos_figure" >&2
    exit 1
}

# The committed artifacts must be what the tree produces: every figure
# run_experiments.sh runs (all but sampling_validation, whose paper-scale
# default takes ~15 min) at its default budget, report and JSON compared
# byte for byte against results/<name>.{txt,json}. About 5 min on 2 vCPUs.
stage results-fresh
fresh_dir="$(tmp -d)"
fresh_start=$SECONDS
names="$(figure --list | grep -vx sampling_validation)"
for name in $names; do
    figure "$name" --json "$fresh_dir/$name.json" >"$fresh_dir/$name.txt" 2>&1
    cmp "$fresh_dir/$name.json" "results/$name.json" || {
        echo "check.sh: results/$name.json is stale — rerun ./run_experiments.sh" >&2
        exit 1
    }
    cmp "$fresh_dir/$name.txt" "results/$name.txt" || {
        echo "check.sh: results/$name.txt is stale — rerun ./run_experiments.sh" >&2
        exit 1
    }
done
echo "check.sh: results-fresh took $((SECONDS - fresh_start)) s"

echo "check.sh: all green ($STAGE_COUNT stages; perfbench accesses_per_sec, not gated: $bench_rates)"
