#!/usr/bin/env sh
# Behaviour fingerprint of the simulator: run the deterministic sim
# generators into <dir>/results/ so two checkouts can be compared with
# `diff -r`. Virtual time is deterministic, so any byte that differs
# between base and head is a modeled-behaviour change.
#
#   .github/regen-diff.sh [--all] <dir>
#
# Run from the root of a checkout (it builds that checkout's bench
# binaries). The default set is the fast one CI runs on every pull
# request; --all adds the five slow generators (minutes) — among them
# table5_25d, the only one whose COSMA column runs through a one-sided
# window.
set -eu

fast="fig6_time_diagram fig3_p2p_bandwidth fig5_coll_bandwidth sec5a_alpha_beta \
figs12_matvec particles_overlap table1_algorithms table2_ndup_sweep"
slow="table3_ppn_sweep table4_comm_volume staged_ppn blockcg_overlap table5_25d"

bins=$fast
if [ "${1:-}" = "--all" ]; then
  bins="$fast $slow"
  shift
fi
if [ $# -ne 1 ]; then
  echo "usage: $0 [--all] <dir>" >&2
  exit 2
fi

flags=""
for b in $bins; do flags="$flags --bin $b"; done
# shellcheck disable=SC2086 # word-splitting of $flags is intended
cargo build --release --offline -q -p ovcomm-bench $flags

root=$(pwd)
mkdir -p "$1"
cd "$1"
for b in $bins; do
  # The generators write results/<name>.json relative to the cwd; their
  # tables and ASCII timelines on stdout are not part of the fingerprint.
  "${CARGO_TARGET_DIR:-$root/target}/release/$b" >/dev/null
done
echo "regen-diff: $(echo $bins | wc -w) generators -> $(pwd)/results"
find results -type f | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -d' ' -f1
