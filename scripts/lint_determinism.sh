#!/usr/bin/env bash
# Determinism lint for the replay-critical crates.
#
# The simulator and the collectives analyzer must be bit-reproducible:
# goldens (fig12/14/15, sweep, resilience, lint JSON) are compared byte
# for byte, and the static analyzer's diagnostics feed pruning decisions.
# The experiment and workload crates render those goldens (all 20 CSVs
# and the lint JSON), so they are held to the same rules. This script
# rejects the usual sources of run-to-run drift:
#
#   1. wall-clock time, ambient RNG, data-parallel iterators, and hidden
#      cross-run state (`thread_local!`, `static mut`) are banned outright
#      in crates/simulator, crates/collectives, crates/topology,
#      crates/core (except its CLI binary under bin/, which may time
#      itself) and crates/dnn;
#   2. HashMap/HashSet (randomized iteration order per process) may only
#      appear in files audited and listed in determinism_allowlist.txt.
#
# The allowlist is also checked for staleness so it cannot rot into a
# blanket waiver.
set -euo pipefail
cd "$(dirname "$0")/.."

scan_dirs=(crates/simulator/src crates/collectives/src crates/topology/src crates/core/src crates/dnn/src)
allowlist=scripts/determinism_allowlist.txt
fail=0

banned='Instant::now|SystemTime::now|thread_rng|rand::random|into_par_iter|par_iter\(\)|par_bridge|thread_local!|static mut'
if hits=$(grep -rnE --exclude-dir=bin "$banned" "${scan_dirs[@]}"); then
    echo "determinism lint: banned nondeterminism primitive(s):" >&2
    echo "$hits" >&2
    fail=1
fi

# HashMap/HashSet hits must come from allowlisted (audited) files.
hash_files=$(grep -rlE --exclude-dir=bin 'HashMap|HashSet' "${scan_dirs[@]}" | sort -u || true)
for f in $hash_files; do
    if ! grep -qxF "$f" "$allowlist"; then
        echo "determinism lint: $f uses HashMap/HashSet but is not in $allowlist" >&2
        echo "  audit the uses (keyed lookup only, no ordered iteration) and add the file" >&2
        fail=1
    fi
done

# Stale allowlist entries point at audits that no longer cover anything.
while IFS= read -r entry; do
    case "$entry" in ''|'#'*) continue ;; esac
    if [ ! -f "$entry" ]; then
        echo "determinism lint: allowlist entry '$entry' does not exist" >&2
        fail=1
    elif ! grep -qE 'HashMap|HashSet' "$entry"; then
        echo "determinism lint: allowlist entry '$entry' no longer uses HashMap/HashSet; remove it" >&2
        fail=1
    fi
done < "$allowlist"

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "determinism lint: clean (${#scan_dirs[@]} crates scanned)"
