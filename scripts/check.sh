#!/usr/bin/env bash
# Repository gate: formatting, lints, and the full test suite.
# Run from anywhere; mirrors what CI would enforce.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> determinism lint (scripts/lint_determinism.sh)"
./scripts/lint_determinism.sh

echo "==> cargo doc -D warnings (missing_docs included: every crate is #![warn(missing_docs)])"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> per-transfer state allocates O(routes), not O(transfers)"
cargo test -q -p ccube-sim --test alloc_budget

echo "==> the static analyzer allocates per logical edge, not per transfer"
cargo test -q -p ccube-collectives --test analyze_budget

echo "==> closed-form iteration model agrees with the one scheduler"
cargo test -q -p ccube --lib systemjob

echo "==> fault-injection property tests"
cargo test -q -p ccube-sim --test faults

echo "==> switch-fabric model suite (passthrough == approx, uplinks, hop modes)"
cargo test -q -p ccube-sim --test fabric_equivalence

echo "==> static schedule analyzer (ccube lint all --json): stdout matches tests/data/lint_all.json"
cargo run -q --release -p ccube --bin ccube -- lint all --json \
    | diff tests/data/lint_all.json -

echo "==> physical-layer analyzer (ccube lint --physical all --json): stdout matches tests/data/lint_physical_all.json, and its goldens"
cargo run -q --release -p ccube --bin ccube -- lint --physical all --json \
    | diff tests/data/lint_physical_all.json -
cargo test -q -p ccube --test lint_golden
cargo test -q -p ccube --test property_physical

echo "==> policy search with certified-bound pruning (ccube search --bounds): stdout matches tests/data/search_bounds.txt"
cargo run -q --release -p ccube --bin ccube -- search --bounds \
    | diff tests/data/search_bounds.txt -

echo "==> ccube figures: same CSVs at 1 and 2 workers and on the passthrough switch fabric"
rm -rf target/check-figs
cargo run -q --release -p ccube --bin ccube -- figures target/check-figs/t1 --threads 1 > /dev/null
cargo run -q --release -p ccube --bin ccube -- figures target/check-figs/t2 --threads 2 > /dev/null
cargo run -q --release -p ccube --bin ccube -- \
    figures target/check-figs/sw --fabric switch --threads 2 > /dev/null
diff -r target/check-figs/t1 target/check-figs/t2
diff -r target/check-figs/t1 target/check-figs/sw
rm -rf target/check-figs

echo "==> ccube search and ccube scaleout: same stdout at 1 and 2 workers"
rm -rf target/check-threads && mkdir -p target/check-threads
for t in 1 2; do
    cargo run -q --release -p ccube --bin ccube -- \
        search --threads "$t" > "target/check-threads/search_t$t.txt"
    cargo run -q --release -p ccube --bin ccube -- \
        scaleout 32 1 --threads "$t" > "target/check-threads/scaleout_t$t.txt"
done
diff target/check-threads/search_t1.txt target/check-threads/search_t2.txt
diff target/check-threads/scaleout_t1.txt target/check-threads/scaleout_t2.txt
rm -rf target/check-threads

echo "==> ccube scaleout 256 64 (deep chunk-priority queues): same stdout at 1 and 2 workers and on the passthrough switch fabric"
rm -rf target/check-scaleout && mkdir -p target/check-scaleout
cargo run -q --release -p ccube --bin ccube -- \
    scaleout 256 64 --threads 1 > target/check-scaleout/t1.txt
cargo run -q --release -p ccube --bin ccube -- \
    scaleout 256 64 --threads 2 > target/check-scaleout/t2.txt
cargo run -q --release -p ccube --bin ccube -- \
    scaleout 256 64 --fabric switch > target/check-scaleout/sw.txt
diff target/check-scaleout/t1.txt target/check-scaleout/t2.txt
diff target/check-scaleout/t1.txt target/check-scaleout/sw.txt
rm -rf target/check-scaleout

echo "==> ccube scaleout 1024 64 (the benchmark's scaleout command): stdout matches tests/data/scaleout_1024_64.txt"
cargo run -q --release -p ccube --bin ccube -- scaleout 1024 64 --threads 1 \
    | diff tests/data/scaleout_1024_64.txt -

echo "==> ccube scaleout 256 on the 2-uplink least-queued fabric (uplink revisions, per-route pricing): stdout matches tests/data/scaleout_256_fabric_lq.txt"
cargo run -q --release -p ccube --bin ccube -- scaleout 256 1 64 --fabric switch \
    --uplinks 2 --uplink-policy least-queued --threads 1 \
    | diff tests/data/scaleout_256_fabric_lq.txt -

echo "==> resilience smoke runs (approx, --fabric switch, 2-uplink spine/leaf): stdout matches tests/data/faults_smoke.txt"
{
    cargo run -q --release -p ccube --bin ccube -- faults --smoke
    cargo run -q --release -p ccube --bin ccube -- faults --smoke --fabric switch
    cargo run -q --release -p ccube --bin ccube -- faults --smoke --fabric switch --uplinks 2
} | diff tests/data/faults_smoke.txt -

echo "==> ccube faults --shrink 195: stdout matches tests/data/faults_shrink_195.txt"
cargo run -q --release -p ccube --bin ccube -- faults --shrink 195 \
    | diff tests/data/faults_shrink_195.txt -

echo "==> resilience grid on the 2-uplink least-queued fabric at seed 195: CSV matches tests/data/faults_leafspine_195.csv"
rm -rf target/check-faults && mkdir -p target/check-faults
cargo run -q --release -p ccube --bin ccube -- faults target/check-faults/leafspine.csv \
    --seed 195 --fabric switch --uplinks 2 --uplink-policy least-queued > /dev/null
diff tests/data/faults_leafspine_195.csv target/check-faults/leafspine.csv
rm -rf target/check-faults

echo "==> fabric fault-injection suite (failover, uplink/switch outages)"
cargo test -q -p ccube-sim --test fabric_faults

echo "==> fabric-resilience golden stays byte-identical"
cargo test -q -p ccube --test golden_regression ext_fabric_resilience_csv_matches_golden_byte_for_byte

echo "==> HTML trace viewer: payload goldens + doc-consistency audit"
cargo test -q -p ccube --test trace_html_golden
cargo test -q -p ccube --test doc_consistency

echo "==> HTML trace viewer renders self-contained single-run and diff files"
rm -rf target/check-html && mkdir -p target/check-html
cargo run -q --release -p ccube --bin ccube -- trace --html target/check-html/run.html > /dev/null
# The default trace saved as CSV parses under the strict trace-CSV
# parser and equals a live re-run of its seed (exit 0: identical).
cargo run -q --release -p ccube --bin ccube -- trace target/check-html/run.csv > /dev/null
cargo run -q --release -p ccube --bin ccube -- \
    trace --diff target/check-html/run.csv 195 > /dev/null
# trace --diff exits 1 when the traces differ (they do: different seeds);
# only exit codes above 1 are real failures.
status=0
cargo run -q --release -p ccube --bin ccube -- \
    trace --diff 7 8 --html target/check-html/diff.html > /dev/null || status=$?
[ "$status" -le 1 ]
# A malformed side is an input error: exactly 2, never the "differ" 1.
printf 'kind,id,channel_or_gpu,t_us,extra_us\ntransfer_end,0,,NaN,\n' \
    > target/check-html/bad.csv
status=0
cargo run -q --release -p ccube --bin ccube -- \
    trace --diff target/check-html/bad.csv 195 > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ]
for f in target/check-html/run.html target/check-html/diff.html; do
    grep -q 'id="ccube-trace-data"' "$f"
    grep -q '</html>' "$f"
    # Self-contained: no external scripts, styles, or fetches.
    ! grep -Eq 'src="http|href="http' "$f"
done
rm -rf target/check-html

echo "==> benchmark (ledger/) builds against the library APIs and passes its tests"
cargo build -q --release --manifest-path ledger/Cargo.toml
cargo test -q --manifest-path ledger/Cargo.toml

echo "==> benchmark oracle: a quick ledger pass reproduces every expected digest"
# The ledger exits 0 even when an output digest mismatches; its last
# stdout line is the verdict object, which must report correct outputs.
verdict=$(cargo run -q --release --offline --manifest-path ledger/Cargo.toml -- \
    --quick --out target/ledger-quick | tail -n 1)
case "$verdict" in
    '{"correct":true'*) ;;
    *)
        echo "ledger --quick: outputs diverge from ledger/expected (see target/ledger-quick)" >&2
        exit 1
        ;;
esac

echo "All checks passed."
