#!/usr/bin/env bash
# Full local gate: build, tests, formatting, lints.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo build --release (perfbench)"
# perfbench is its own workspace, so the build above does not compile
# it; a hook-API change must not silently break the benchmark.
cargo build --release --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -- -D warnings"
# A doc link to an item a crate no longer exports fails here, so
# narrowing a module's visibility cannot leave dangling docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> reproduce all (E1-E9, Table 2 unchanged)"
# The committed output pins every experiment's numbers; a change that
# moves one must regenerate the file deliberately.
target/release/reproduce all | diff reproduce_output.txt -

echo "==> mlint (static analysis over example mcode)"
# Example mroutines must stay lint-clean under the full battery, with
# warnings promoted to failures.
for f in examples/mcode/*.s; do
    target/release/mlint --deny-warnings "$f"
done

echo "==> msim smoke (both engines, address range, watchdog)"
# A two-instruction image exits with its ebreak code on either engine,
# and an address beyond 32 bits gets the usage error (exit 1) instead
# of being truncated to one that runs.
out=$(mktemp -d)
printf 'li a0, 42\nebreak\n' > "$out/t.s"
target/release/masm "$out/t.s" -o "$out/t.bin"
expect_exit() {
    local want=$1 status=0
    shift
    target/release/msim "$out/t.bin" "$@" 2> /dev/null || status=$?
    if [[ $status != "$want" ]]; then
        echo "msim $* exited $status, expected $want"
        exit 1
    fi
}
expect_exit 42 --engine pipeline
expect_exit 42 --engine interp
expect_exit 1 --base 0x100000000
expect_exit 1 --entry 0x100000000
# An image that never retires (an empty file: the zero word at 0 traps
# back to mtvec 0 forever) stops at the watchdog's first 100,000-cycle
# window, not at the default 100,000,000-cycle --max-cycles.
: > "$out/empty.bin"
perf=$(target/release/msim "$out/empty.bin" --perf 2>&1 || true)
cycles=$(sed -n 's/^engine .* | cycles \([0-9]*\) .*/\1/p' <<< "$perf")
if [[ -z $cycles || $cycles -gt 100000 ]]; then
    echo "msim on an image that never retires ran ${cycles:-?} cycles, expected at most 100000"
    exit 1
fi
rm -r "$out"

echo "==> closed stdout (mfuzz, mfault)"
# A reader that closes the pipe early ends the report, not the tool:
# no panic, and the exit code the campaign earned (the injected bug is
# found, so mfuzz exits 1). The reader here closes at once: `head -1`
# can read a short report whole before it exits, and then no write
# ever fails.
out=$(mktemp -d)
closed_stdout() {
    local want=$1 status=0
    shift
    "$@" 2> "$out/stderr" | true || status=${PIPESTATUS[0]}
    if [[ $status != "$want" ]] || grep -q panicked "$out/stderr"; then
        echo "$* with a closed stdout exited $status, expected $want:"
        cat "$out/stderr"
        exit 1
    fi
}
closed_stdout 1 target/release/mfuzz --cases 200 --seed 7 --inject-bug mul --no-shrink
closed_stdout 0 target/release/mfault --cases 20 --seed 7
rm -r "$out"

if [[ "${CHECK_BENCH:-0}" == "1" ]]; then
    echo "==> perfbench against HEAD (CHECK_BENCH=1)"
    # Ten alternating pairs per workload; any end-to-end metric worse
    # than its BENCHMARK.json bound, or any failed run, fails the gate.
    scripts/bench_compare.sh
fi

if [[ "${CHECK_FUZZ:-0}" == "1" ]]; then
    echo "==> fuzz smoke (CHECK_FUZZ=1)"
    # A short real campaign: any divergence fails the gate.
    target/release/mfuzz --seconds 10 --jobs 2 --seed 1
    # A --cases campaign must print the same report for any --jobs.
    out=$(mktemp -d)
    for jobs in 1 2; do
        target/release/mfuzz --cases 1000 --seed 1 --jobs "$jobs" > "$out/jobs$jobs.txt"
    done
    cmp "$out/jobs1.txt" "$out/jobs2.txt"
    # ... and the report itself must not move.
    diff tests/golden/mfuzz_cases1000_seed1.txt "$out/jobs1.txt"
    rm -r "$out"
    # An injected engine bug must be found: the campaign exits non-zero
    # and reports at least one divergence.
    if bug=$(target/release/mfuzz --cases 200 --seed 7 --jobs 2 --inject-bug mul); then
        echo "mfuzz --inject-bug mul exited 0: the injected bug went unfound"
        exit 1
    fi
    if ! grep -q '^  divergence (seed ' <<< "$bug"; then
        echo "mfuzz --inject-bug mul failed without reporting a divergence:"
        echo "$bug"
        exit 1
    fi
    # The committed corpus must keep replaying bit-identically, and
    # every artifact must stay free of lint-soundness disagreements.
    for f in tests/corpus/*.s; do
        target/release/mfuzz --replay "$f" --lint
    done
fi

if [[ "${CHECK_FAULT:-0}" == "1" ]]; then
    echo "==> fault-injection smoke (CHECK_FAULT=1)"
    # Fixed-seed SECDED campaign on the live-site workload: every
    # injected single-bit MRAM/MReg fault must be detected and
    # corrected, with zero silent data corruption, on both engines,
    # and the classification itself must not move. Each worker reuses
    # one machine for all its cases, so --jobs 1 (one machine for all
    # 100 cases) and --jobs 2 give each machine a different history;
    # both must match the goldens.
    out=$(mktemp -d)
    for engine in pipeline interp; do
        for jobs in 1 2; do
            target/release/mfault --seed 7 --cases 100 --jobs "$jobs" --engine "$engine" \
                --workload loop --ecc secded --sites mram-code,mram-data,mreg \
                --kind transient --max-sdc 0 --min-corrected-pct 95 \
                --json "$out/$engine.json"
            diff "tests/golden/mfault_seed7_loop_$engine.json" "$out/$engine.json"
            # Parity and stuck-at paths: golden-copy scrubs,
            # syndrome-only scrubs that fall back to rollback, and
            # stuck MRegs that survive it must keep their
            # classification.
            target/release/mfault --seed 7 --cases 100 --jobs "$jobs" --engine "$engine" \
                --workload loop --ecc parity --kind mixed --sites mram-code,mram-data,mreg \
                --json "$out/$engine-parity.json" > /dev/null
            diff "tests/golden/mfault_seed7_parity_mixed_$engine.json" "$out/$engine-parity.json"
        done
    done
    rm -r "$out"
    # A correction floor is never met by a campaign that evaluated no
    # case.
    if target/release/mfault --cases 0 --min-corrected-pct 95 > /dev/null 2>&1; then
        echo "mfault --cases 0 passed --min-corrected-pct on zero evidence"
        exit 1
    fi
    # The harness itself must not perturb state.
    target/release/mfault --seed 7 --cases 25 --zero-fault --workload fuzz
    # The latch, cache, TLB and guest-register sites must also give
    # identical JSON for any --jobs.
    out=$(mktemp -d)
    for jobs in 1 2; do
        target/release/mfault --seed 7 --cases 200 --jobs "$jobs" --engine pipeline \
            --workload fuzz --sites latch,cache,tlb,guest-reg --json "$out/jobs$jobs.json" \
            > /dev/null
    done
    cmp "$out/jobs1.json" "$out/jobs2.json"
    # ... and the classification itself must not move.
    diff tests/golden/mfault_seed7_fuzz.json "$out/jobs1.json"
    rm -r "$out"
fi

echo "==> all checks passed"
