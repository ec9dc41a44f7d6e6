#!/usr/bin/env bash
# Check that the CLI writes the same bytes at REF as in the working tree.
#
# Usage: scripts/compare_outputs.sh REF
#
# Exports REF (any commit-ish) with `git archive` into a temporary directory,
# runs `python3 -m hessmc run` from both source trees on fourteen configs, and
# compares the two output directories with `diff -r` and the two printed
# summaries with `diff`. The `thin7` config keeps every seventh sample of
# blocks of 150, so thinning must carry on across block boundaries. The
# `tiny` config (10 samples, burn-in 5, 12 chains, every third sample kept)
# runs ten blocks of one sample, so burn-in comes in the first block alone
# and thinning carries on across nine block boundaries. The
# `rough` config (field variance 0.01, 8 chains) has HLOCAL_HMC endpoints
# whose Hessian is indefinite, so the repair's jitter path is compared as
# well, and trajectories that leave the domain midway, so the rows that stop
# early and the rows that go on are compared too. Four MH-only configs (8x8
# target, 50 samples) set `credible_mass` so that the analytic band's normal
# quantile, ndtri((1 + mass) / 2), takes each path the default 0.95 does not:
# `mass_centre` (0.2) the central approximation, `mass_tail` (0.999999) the
# first tail one, `mass_far` (0.99999999999999) the far tail one, and
# `mass_one` (1.0) the infinite quantile. The `nologdet` config (HMAP_HMC and
# HLOCAL_HMC, 2 chains) sets `include_logdet` false, so the energy change is
# compared without the endpoint log-determinant terms as well. Three configs
# (HMAP_HMC and HLOCAL_HMC, 2 chains, 300 samples, burn-in 20, every sample
# stored) move the field's scale through the forms '%.17g' takes, and so
# through both paths of the CSV writer: `scale_up` (m_value 3, values near
# 19, a '.' after two digits), `straddle` (m_value -9.2, about a third of
# the values below 1e-4 in the same rows, so whole chunks go through the
# template) and `scale_far` (m_value 40, values near 2e17, exponent notation).
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

for mass in centre:0.2 tail:0.999999 far:0.99999999999999 one:1.0; do
    cat > "$work/mass_${mass%%:*}.json" <<JSON
{"sampler": {"n_samples": 50, "credible_mass": ${mass#*:}}, "run": {"methods": ["MH"]}}
JSON
done

status=0
mkdir "$work/stdout"
for config in desk field144 chains8 thin7 rough tiny nologdet \
        scale_up straddle scale_far mass_centre mass_tail mass_far mass_one; do
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
