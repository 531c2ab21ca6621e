#!/usr/bin/env bash
# Reference CLI runs: write every CSV and JSON sidecar of a fixed set of
# gutzmc commands into one directory, so that two source trees can be
# compared with a single `diff -r`.
#
# Usage: scripts/cli_outputs.sh SRC OUT
#   SRC  root of a gutzmc checkout (the directory holding src/gutzmc)
#   OUT  directory for the outputs; created if missing, must be empty
#
# Example, a change against its parent commit:
#   git archive HEAD~1 | tar -x -C /tmp/parent
#   scripts/cli_outputs.sh /tmp/parent /tmp/out-parent
#   scripts/cli_outputs.sh .           /tmp/out-change
#   diff -r /tmp/out-parent /tmp/out-change
#
# Each run writes with a relative --out inside OUT, so the sidecars' config
# echo is the same whatever OUT is.  GUTZMC_* settings in the environment
# are ignored and BLAS runs on one thread.  The whole set (50 files) takes
# ~16 s on a 2 vCPU host.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 1
fi
src=$(cd "$1" && pwd)/src
if [ ! -d "$src/gutzmc" ]; then
    echo "error: $src/gutzmc not found" >&2
    exit 1
fi
mkdir -p "$2"
out=$(cd "$2" && pwd)
if [ -n "$(ls -A "$out")" ]; then
    echo "error: $out is not empty" >&2
    exit 1
fi

for var in $(env | sed -n 's/^\(GUTZMC_[A-Za-z_]*\)=.*/\1/p'); do
    unset "$var"
done
export OPENBLAS_NUM_THREADS=1
export PYTHONPATH="$src"

# A config file outside OUT, so that OUT holds only the runs' outputs.
config=$(mktemp)
trap 'rm -f "$config"' EXIT
cat >"$config" <<'EOF'
# reference config: every setting but the seed comes from this file
lattice = chain:4
U = 2,4
g_min = 0.5
g_max = 1.0
g_step = 0.5
nmc = 1000
bins = 10
burnin = 200
seed = 99  # --seed on the command line wins
EOF

run() {
    local name=$1
    shift
    echo "== $name: gutzmc $*"
    (cd "$out" && python3 -m gutzmc.cli "$@" --out "$name.csv" >/dev/null)
}

grid=(--g-min 0.5 --g-max 1.5 --g-step 0.5)
short=(--nmc 1000 --bins 10 --burnin 200)

run mc_chain4_determinant mc --lattice chain:4 "${grid[@]}" "${short[@]}"
run mc_chain4_statevector mc --lattice chain:4 --backend statevector "${grid[@]}" "${short[@]}"
run mc_ladder6_statevector mc --lattice ladder:6 --backend statevector "${grid[@]}" "${short[@]}"
run mc_chain8 mc --lattice chain:8 "${grid[@]}" "${short[@]}"
# the 4,900-state statevector engine: basis_matrix, diagonal_eigenvalues and
# the chain bookkeeping it shares with the determinant engine
run mc_chain8_statevector mc --lattice chain:8 --backend statevector --g-min 1.0 --g-max 1.0 \
    --nmc 200 --burnin 100
run sweep_chain6 sweep --lattice chain:6 "${grid[@]}" "${short[@]}"
run sweep_ladder6 sweep --lattice ladder:6 "${grid[@]}" "${short[@]}"
run sweep_ladder8 sweep --lattice ladder:8 "${grid[@]}" "${short[@]}"
run sweep_chain10 sweep --lattice chain:10 "${grid[@]}" "${short[@]}"
run sweep_chain7 sweep --lattice chain:7 "${grid[@]}" "${short[@]}"
# chain:4 (36 states) and chain:5 (100 states, odd N) reach the dense ED branch
run sweep_chain4 sweep --lattice chain:4 "${grid[@]}" "${short[@]}"
run sweep_chain5 sweep --lattice chain:5 "${grid[@]}" "${short[@]}"
run mc_config mc --config "$config" --seed 7
run two_site_shots two-site --shots 512 --reps 4 --bias 0.9,0.05
run two_site_exact two-site --shots 0
run two_site_default two-site
run lcu_default lcu
run lcu_ladder8 lcu --lattice ladder:8
run lcu_chain5 lcu --lattice chain:5
run hst_verify hst-verify
run hst_verify_coupling hst-verify --J -0.7
run phase_check_chain4 phase-check --lattice chain:4
run phase_check_chain3_grid phase-check --lattice chain:3 --g-min 0.25 --g-max 1.75 --g-step 0.75

echo "$(ls "$out" | wc -l) files in $out"
