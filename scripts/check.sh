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

echo "==> fault-injection property tests"
cargo test -q -p ccube-sim --test faults

echo "==> switch-fabric model suite (passthrough == approx, uplinks, hop modes)"
cargo test -q -p ccube-sim --test fabric_equivalence

echo "==> static schedule analyzer (ccube lint)"
cargo run -q --release -p ccube --bin ccube -- lint all > /dev/null

echo "==> physical-layer analyzer (ccube lint --physical) and its goldens"
cargo run -q --release -p ccube --bin ccube -- lint --physical all --json > /dev/null
cargo test -q -p ccube --test lint_golden
cargo test -q -p ccube --test property_physical

echo "==> policy search with certified-bound pruning (ccube search --bounds)"
cargo run -q --release -p ccube --bin ccube -- search --bounds > /dev/null

echo "==> resilience smoke run (ccube faults --smoke)"
cargo run -q --release -p ccube --bin ccube -- faults --smoke

echo "==> resilience smoke run on the switch fabric (--fabric switch)"
cargo run -q --release -p ccube --bin ccube -- faults --smoke --fabric switch

echo "==> resilience smoke run on the 2-uplink spine/leaf fabric"
cargo run -q --release -p ccube --bin ccube -- faults --smoke --fabric switch --uplinks 2

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
# trace --diff exits 1 when the traces differ (they do: different seeds);
# only exit codes above 1 are real failures.
status=0
cargo run -q --release -p ccube --bin ccube -- \
    trace --diff 7 8 --html target/check-html/diff.html > /dev/null || status=$?
[ "$status" -le 1 ]
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
