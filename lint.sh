#!/usr/bin/env sh
# Run the sgx-lint model-integrity pass over the workspace.
#
#   ./lint.sh                  # lint crates/ and tests/ against the baseline
#   ./lint.sh --format json    # machine-readable deterministic report
#   ./lint.sh crates/sgx-sim   # lint a subtree (no baseline)
#   ./lint.sh --robustness [flags]   # score corpus + variants (RD floor 95)
#   ./lint.sh selfcheck [flags]      # variant fuzz of pinned clean files
#
# Exit codes: 0 clean, 1 findings (or stale baseline entries, a wrong
# corpus base verdict, RD below the floor, or a selfcheck false
# positive), 2 usage error.
set -eu
cd "$(dirname "$0")"
if [ "$#" -eq 0 ]; then
    set -- --baseline lint-baseline.json crates tests
elif [ "$1" = "--robustness" ]; then
    # Robustness scoring never reads the workspace baseline; extra flags
    # (--jobs, --weaken, --format json, …) pass straight through.
    shift
    set -- robustness --floor 95 "$@"
fi
exec cargo run --release -q -p sgx-lint -- "$@"
