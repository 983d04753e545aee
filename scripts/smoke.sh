#!/usr/bin/env bash
# Run every hdwhite command on small inputs in the current directory.
#
# usage: scripts/smoke.sh [--against DIR] HDWHITE [ARG...]
#
# HDWHITE [ARG...] is the command that runs the CLI: `hdwhite`, a
# virtual environment's `bin/hdwhite`, or `env PYTHONPATH=/path/to/src
# python -m hdwhite.cli` from a checkout.  Run it in an empty directory:
# it writes its inputs there with `python` (numpy) and its outputs beside
# them, and fails on the first non-zero exit.  Each command that takes
# --workers runs at two worker counts, whose outputs must be
# byte-identical.  A panel with a quoted cell, read from the file and
# through a pipe (bash's <(cat file)), must print what the plain panel
# prints, and a size config saved with a UTF-8 byte-order mark must write
# what the plain config writes.  Six failures must each exit with their
# code of README's exit-code table and print their message: a non-square
# power-theory matrix (2), a size config whose "out" holds a NUL (2), a
# CSV cell that is NaN (3), a CSV byte that is not UTF-8 (3), a missing
# input file (4) and a size run whose --out name is too long to open (4;
# both size runs fail before the grid runs).  With --against DIR, every
# file written here must also be byte-identical to the file of the same
# name in DIR, such as the directory of an earlier run.  A command that
# runs longer than `limit` (300) seconds, such as one whose worker
# processes hang, is stopped and named.
set -euo pipefail

against=
if [[ "${1:-}" == --against ]]; then
  against=$(cd "$2" && pwd)
  shift 2
fi
if (($# == 0)); then
  echo "usage: $0 [--against DIR] HDWHITE [ARG...]" >&2
  exit 2
fi
cmd=("$@")
limit=300
# run ARG...: run the CLI with ARG..., stopped (exit 124) after $limit seconds.
run() {
  local status=0
  timeout "$limit" "${cmd[@]}" "$@" || status=$?
  if ((status == 124)); then
    echo "timed out after ${limit} s: ${cmd[*]} $*" >&2
  fi
  return "$status"
}
# fails CODE MESSAGE OUT ARG...: running ARG... must exit CODE and print
# exactly MESSAGE to stderr, which is kept in OUT.
fails() {
  local code=$1 message=$2 out=$3 status=0
  shift 3
  run "$@" 2> "$out" || status=$?
  if ((status != code)) || [[ "$(cat "$out")" != "$message" ]]; then
    echo "expected exit $code and '$message', got exit $status and '$(cat "$out")'" >&2
    exit 1
  fi
}

cat > power.json <<'JSON'
{"kind": "power", "scenarios": ["var1", "varma1"], "n": 40, "p": 8,
 "K": 1, "m": [1, 3], "replications": 6, "master_seed": 1}
JSON
cat > curve.json <<'JSON'
{"kind": "power", "scenarios": "vma1", "n": 40, "p": 8,
 "K": 1, "m": [1, 2, 3], "replications": 6, "master_seed": 1}
JSON
cat > size.json <<'JSON'
{"kind": "size", "scenarios": ["null-i"], "n": 40, "p": 8,
 "K": 1, "replications": 6, "master_seed": 1}
JSON
cat > size-nul.json <<'JSON'
{"kind": "size", "scenarios": ["null-i"], "n": 40, "p": 8,
 "K": 1, "replications": 6, "master_seed": 1, "out": "a\u0000b.csv"}
JSON
python - <<'PY'
import numpy as np
np.savetxt("a0.csv", np.eye(4), delimiter=",")
np.savetxt("a1.csv", 0.3 * np.eye(4), delimiter=",")
np.savetxt("a0-2x3.csv", np.ones((2, 3)), delimiter=",")
rng = np.random.default_rng(1)
np.savetxt("panel.csv", rng.standard_normal((30, 4)), delimiter=",")
with open("panel-nan.csv", "w") as fh:
    fh.write("1.0,2.0\n3.0,4.0\n5.0,nan\n7.0,8.0\n")
# One quoted cell sends the reader to its per-cell loop, which reads the
# input a second time.
with open("panel.csv") as fh:
    first, rest = fh.read().split(",", 1)
with open("panel-quoted.csv", "w") as fh:
    fh.write(f'"{first}",{rest}')
with open("size-bom.json", "wb") as fh, open("size.json", "rb") as plain:
    fh.write(b"\xef\xbb\xbf" + plain.read())
with open("panel-not-utf8.csv", "wb") as fh:
    fh.write(b"1.0,2.0\n3.0,4.0\n5.0,6\xff.0\n7.0,8.0\n")
# p=4, T=60 tests its 30 windows by SUM's cross route, in one block
# of 64; p=12, T=120 tests its 90 by the Gram route, (K+1) p >= 30,
# and p=4, T=160 its 130 by the cross route, both across a block
# boundary.  "-outlier" is a cross-route panel whose month 80 is
# scaled by 1e7: its factors are zero within 40 months of it, and
# month 80's are solved so that no month there loads on it in the
# OLS hat matrix, which leaves its residual dominant.
cases = (("", 60, 4), ("-gram", 120, 12), ("-cross", 160, 4), ("-outlier", 160, 4))
for suffix, t, p in cases:
    factors = np.column_stack([rng.standard_normal((t, 3)), np.full(t, 0.01)])
    if suffix == "-outlier":
        factors[40:121, :3] = 0.0
        rest = np.delete(np.column_stack([np.ones(t), factors[:, :3]]), 80, axis=0)
        g = np.linalg.solve(rest.T @ rest, np.eye(4)[0])
        factors[80, :3] = -g[0] * g[1:] / (g[1:] @ g[1:])
    returns = factors[:, :3] @ rng.standard_normal((3, p)) + rng.standard_normal((t, p))
    if suffix == "-outlier":
        returns[80] *= 1e7
    dates = [f"d{i:03d}" for i in range(t)]
    assets = ",".join(f"a{j}" for j in range(p))
    for name, header, rows in ((f"returns{suffix}.csv", "date," + assets, returns),
                               (f"factors{suffix}.csv", "date,market_excess,smb,hml,rf", factors)):
        with open(name, "w") as fh:
            fh.write(header + "\n")
            for date, row in zip(dates, rows):
                fh.write(date + "," + ",".join(repr(float(v)) for v in row) + "\n")
# 40 x 300 at K=2 is a Gram-route shape, (K+1) p >= n, so MAX runs its
# unit-column kernel, float32 screen and all.
np.savetxt("wide.csv", np.random.default_rng(2).standard_normal((40, 300)), delimiter=",")
# 400 x 20 at K=1 is a cross-route shape whose row 200, scaled by 1e7,
# dominates SUM's pair sum: the route splits it off, so the test answers.
outlier = np.random.default_rng(3).standard_normal((400, 20))
outlier[200] *= 1e7
np.savetxt("outlier.csv", outlier, delimiter=",")
PY

run size --config size.json --workers 1 --out size-1.csv
run size --config size.json --workers 2 --out size-2.csv
cmp size-1.csv size-2.csv
run size --config size-bom.json --workers 1 --out size-bom.csv
cmp size-1.csv size-bom.csv
# --workers 3 is the main process and two pool workers.
run power --config power.json --workers 2 --out power-2.csv
run power --config power.json --workers 3 --out power-3.csv
cmp power-2.csv power-3.csv
cat power-3.csv
run power --config curve.json --workers 1 --out curve-1.csv --format curve
run power --config curve.json --workers 2 --out curve-2.csv --format curve
cmp curve-1.csv curve-2.csv
run power-theory --a0 a0.csv --a1 a1.csv --n 100 | tee power-theory.txt
# Each block of 64 windows is one job: the T=60 panel has one block,
# T=120 two and T=160 three.  One worker and two print the same summary.
for suffix in "" -gram -cross -outlier; do
  run residual-test --returns "returns$suffix.csv" --factors "factors$suffix.csv" \
    --window 30 --K 2 --workers 1 | tee "residual$suffix-1.json"
  run residual-test --returns "returns$suffix.csv" --factors "factors$suffix.csv" \
    --window 30 --K 2 --workers 2 > "residual$suffix-2.json"
  cmp "residual$suffix-1.json" "residual$suffix-2.json"
done
run test --input panel.csv --K 2 | tee test-panel.json
run test --input wide.csv --K 2 | tee test-wide.json
run test --input outlier.csv --K 1 | tee test-outlier.json
run test --input panel-quoted.csv --K 2 > test-quoted.json
run test --input <(cat panel-quoted.csv) --K 2 > test-quoted-pipe.json
cmp test-panel.json test-quoted.json
cmp test-panel.json test-quoted-pipe.json
fails 2 "error: a0 must be square, got shape (2, 3)" power-theory-2x3.err \
  power-theory --a0 a0-2x3.csv --a1 a0-2x3.csv --n 100
fails 2 "error: output path 'a\\x00b.csv': embedded null byte" size-nul.err \
  size --config size-nul.json
fails 3 "error: non-finite value 'nan' (row 3, column 2)" test-nan.err \
  test --input panel-nan.csv --K 1
fails 3 "error: byte 0xff is not UTF-8 (row 3)" test-not-utf8.err \
  test --input panel-not-utf8.csv --K 1
fails 4 "error: [Errno 2] No such file or directory: 'missing.csv'" test-missing.err \
  test --input missing.csv --K 1
long=$(printf 'r%.0s' {1..296}).csv
fails 4 "error: [Errno 36] File name too long: '$long'" size-long-name.err \
  size --config size.json --out "$long"

if [[ -n "$against" ]]; then
  for file in *; do
    cmp "$file" "$against/$file"
  done
  echo "every file matches $against"
fi
