#!/usr/bin/env bash
# Check that the CLI writes the same bytes at REF as in the working tree.
#
# Usage: scripts/compare_outputs.sh REF
#
# Exports REF (any commit-ish) with `git archive` into a temporary directory,
# runs `python3 -m hessmc run` from both source trees on 22 configs, and
# compares the two output directories with `diff -r` and the two printed
# summaries with `diff`. The `single`, `desk`, `field144` and `chains8`
# configs run the four methods for 600 samples after a burn-in of 20, every
# sample stored: the 8x8 target with 1 chain, the 8x8 target with 2 chains,
# the 12x12 target (`extent_m` [12000, 6000]) with 2 chains, and the 8x8
# target with 8 chains. `single` is the one-chain path of the default run
# (its chain runs as one point, not as a one-row stack), and its band merges
# blocks of 192 samples into each coordinate's 16 smallest and 16 largest
# values. The
# `thin7` config (600 samples, 3 chains) keeps
# every seventh sample of blocks of 64, the most that fit the CLI's 96 KiB
# block budget, so thinning must carry on across nine block boundaries. The
# `tiny` config (10 samples, burn-in 5, 12 chains, every third sample kept)
# runs ten blocks of one sample, so burn-in comes in the first block alone
# and thinning carries on across nine block boundaries. The
# `rough` config (field variance 0.01, 8 chains) has HLOCAL_HMC endpoints
# whose Hessian is indefinite, so the repair's jitter path is compared as
# well, and trajectories that leave the domain midway, so the rows that stop
# early and the rows that go on are compared too. `rough1` is the same
# target with 1 chain (600 samples, burn-in 20, every sample stored, all four
# methods): its HLOCAL_HMC trajectories that leave the domain stop as one
# point, not as rows of a stack, and its end masses are repaired with jitter
# one point at a time. Four MH-only configs (8x8
# target, 50 samples) set `credible_mass` so that the analytic band's normal
# quantile, ndtri((1 + mass) / 2), takes each path the default 0.95 does not:
# `mass_centre` (0.2) the central approximation, `mass_tail` (0.999999) the
# first tail one, `mass_far` (0.99999999999999) the far tail one, and
# `mass_one` (1.0) the infinite quantile. A fifth, `mass_tiny` (1e-9), has
# band tails (26 smallest and 26 largest of 50) that cover every row, so
# the band keeps all 50 rows of each coordinate, sorted. The `nologdet`
# config (HMAP_HMC and HLOCAL_HMC, 2 chains) sets `include_logdet` false, so
# the energy change is compared without the endpoint log-determinant terms
# as well. Three configs
# (HMAP_HMC and HLOCAL_HMC, 2 chains, 300 samples, burn-in 20, every sample
# stored) move the field's scale through the forms '%.17g' takes, and so
# through both paths of the CSV writer: `scale_up` (m_value 3, values near
# 19, a '.' after two digits), `straddle` (m_value -9.2, about a third of
# the values below 1e-4 in the same rows, so whole chunks go through the
# template) and `scale_far` (m_value 40, values near 2e17, exponent notation).
# Three HMC-only configs (300 samples unless said, burn-in 20, every sample
# stored) set `beta`, so the mass beta * I is compared with beta != 1, where
# its inverse's diagonal is not all ones: `beta_up` (beta 3, 2 chains, 600
# samples), `beta_down` (field variance 0.01, beta 0.3, 8 chains, so one
# factor solves an 8-row stack) and `beta_f144` (12x12 grid, beta 2.5,
# 2 chains). The `wide` config (24x24 grid, HMAP_HMC, 2 chains, 200 samples,
# burn-in 20, every sample stored) has rows of 576 values, each larger than
# the CSV writer's chunk budget, so its samples are formatted one row at a time.
# The `band_cut` config (MH and HLOCAL_HMC, 2 chains, 1,500 samples,
# `band_samples` 700, `credible_mass` 0.9) is the one whose band reads fewer
# rows than the chain has: the band's tails (36 smallest and 36 largest of
# each coordinate) are merged from blocks of 96 samples, sorted several
# times, and the band stops 28 rows into its eighth block.
# Exits 0 when every file and summary is byte-identical, 1 on any difference,
# 2 on a usage or run error. `scripts/compare_outputs.sh HEAD` compares the
# tree with itself: a check that the script and the reruns still work; CI
# compares a change against its base commit.
# BLAS runs on one thread so that the comparison does not depend on threading.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REF" >&2
    exit 2
fi
ref=$1
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/ref"
git -C "$repo" archive --format=tar "$ref" src | tar -x -C "$work/ref"

# 600 samples, burn-in 20, every sample stored, all four methods.
common='"sampler": {"n_samples": 600, "burn_in": 20, "store_samples": true, "thin": 1}'
cat > "$work/single.json" <<JSON
{$common, "run": {"chains": 1}}
JSON
cat > "$work/desk.json" <<JSON
{$common, "run": {"chains": 2}}
JSON
cat > "$work/field144.json" <<JSON
{"target": {"rows": 12, "cols": 12, "extent_m": [12000.0, 6000.0]},
 $common, "run": {"chains": 2}}
JSON
cat > "$work/chains8.json" <<JSON
{$common, "run": {"chains": 8}}
JSON
cat > "$work/thin7.json" <<JSON
{"sampler": {"n_samples": 600, "burn_in": 20, "store_samples": true, "thin": 7},
 "run": {"chains": 3}}
JSON

cat > "$work/rough.json" <<JSON
{"target": {"variance": 0.01}, $common, "run": {"chains": 8}}
JSON
cat > "$work/rough1.json" <<JSON
{"target": {"variance": 0.01}, $common, "run": {"chains": 1}}
JSON
cat > "$work/nologdet.json" <<JSON
{"sampler": {"n_samples": 600, "burn_in": 20, "store_samples": true, "thin": 1,
             "include_logdet": false},
 "run": {"chains": 2, "methods": ["HMAP_HMC", "HLOCAL_HMC"]}}
JSON
cat > "$work/tiny.json" <<JSON
{"sampler": {"n_samples": 10, "burn_in": 5, "store_samples": true, "thin": 3},
 "run": {"chains": 12}}
JSON

for scale in scale_up:3 straddle:-9.2 scale_far:40; do
    cat > "$work/${scale%%:*}.json" <<JSON
{"target": {"m_value": ${scale#*:}},
 "sampler": {"n_samples": 300, "burn_in": 20, "store_samples": true, "thin": 1},
 "run": {"chains": 2, "methods": ["HMAP_HMC", "HLOCAL_HMC"]}}
JSON
done

hmc='"sampler": {"burn_in": 20, "store_samples": true, "thin": 1'
cat > "$work/beta_up.json" <<JSON
{$hmc, "n_samples": 600, "beta": 3.0}, "run": {"chains": 2, "methods": ["HMC"]}}
JSON
cat > "$work/beta_down.json" <<JSON
{"target": {"variance": 0.01},
 $hmc, "n_samples": 300, "beta": 0.3}, "run": {"chains": 8, "methods": ["HMC"]}}
JSON
cat > "$work/beta_f144.json" <<JSON
{"target": {"rows": 12, "cols": 12, "extent_m": [12000.0, 6000.0]},
 $hmc, "n_samples": 300, "beta": 2.5}, "run": {"chains": 2, "methods": ["HMC"]}}
JSON

cat > "$work/wide.json" <<JSON
{"target": {"rows": 24, "cols": 24, "extent_m": [24000.0, 12000.0]},
 $hmc, "n_samples": 200}, "run": {"chains": 2, "methods": ["HMAP_HMC"]}}
JSON

for mass in centre:0.2 tail:0.999999 far:0.99999999999999 one:1.0 tiny:1e-9; do
    cat > "$work/mass_${mass%%:*}.json" <<JSON
{"sampler": {"n_samples": 50, "credible_mass": ${mass#*:}}, "run": {"methods": ["MH"]}}
JSON
done

cat > "$work/band_cut.json" <<JSON
{"sampler": {"n_samples": 1500, "band_samples": 700, "credible_mass": 0.9},
 "run": {"chains": 2, "methods": ["MH", "HLOCAL_HMC"]}}
JSON

status=0
mkdir "$work/stdout"
for config in single desk field144 chains8 thin7 rough rough1 tiny nologdet \
        scale_up straddle scale_far mass_centre mass_tail mass_far mass_one mass_tiny \
        beta_up beta_down beta_f144 wide band_cut; do
    for tree in ref head; do
        src="$work/ref/src"
        [ "$tree" = head ] && src="$repo/src"
        OPENBLAS_NUM_THREADS=1 PYTHONPATH="$src" python3 -m hessmc run \
            --config "$work/$config.json" --out "$work/out/$tree/$config" \
            > "$work/stdout/$tree-$config" \
            || { echo "error: $config failed on $tree" >&2; exit 2; }
    done
    same=1
    if ! diff "$work/stdout/ref-$config" "$work/stdout/head-$config" >&2; then
        echo "$config: printed summaries differ" >&2
        same=0
    fi
    if ! diff -r "$work/out/ref/$config" "$work/out/head/$config" > /dev/null; then
        echo "$config: outputs differ:" >&2
        diff -rq "$work/out/ref/$config" "$work/out/head/$config" >&2 || true
        same=0
    fi
    if [ $same = 1 ]; then
        echo "$config: $(ls "$work/out/head/$config" | wc -l) files and the printed summary identical"
    else
        status=1
    fi
done
exit $status
