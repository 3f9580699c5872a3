#!/usr/bin/env bash
# Byte-comparison set: the outputs of a fixed list of qinterp commands.
#
#   tools/output_set.sh SRC_DIR OUT_DIR
#
# SRC_DIR is the root of a qinterp source tree (it holds src/qinterp).
# OUT_DIR receives the inputs, written from a fixed seed, and one file per
# command: its stdout and stderr, then a last line "exit CODE".  Commands run
# inside OUT_DIR with relative paths, so two trees' sets compare whole;
# tools/compare_outputs.sh [REV] runs this script on REV and on the working
# tree and prints the diff.
#
# The set covers interpolate points and sweeps (nu2, lambda and table sources,
# both domains, m=6 and m=12, one m=16 point, and a sweep whose points pass the
# float range), eighteen sum configs (one at m=16, a sparse one at the 24-qubit
# cap, a dense (8, 4) one whose 256 terms come from a poly_file, one with a
# single controlled term, one whose weights' squares overflow, one whose
# variable index is past any count, one of all-zero weights, one of an
# all-zero hash, one that scales a hash spelt out as 0 1 ... 7, the identity,
# and one that starts with a UTF-8 byte-order mark), encode,
# dict (JSON and SVG; one of a single controlled term, plain and F', one
# spelled with k01 and k0*k0, plain and F', one of that huge index, and one
# F' of one key qubit and 16 value qubits) and repro with its artifacts.
# Encodes at m=16 and m=17 and that wide F', where the Fourier transform is
# doubled and the correction table folded into it, keep the sha256 of their
# JSON and the amplitudes at five fixed indices (printed with repr) in place
# of the megabytes themselves.  It takes about half a minute on one core.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 SRC_DIR OUT_DIR" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
export PYTHONPATH="$src/src" OMP_NUM_THREADS=1
cd "$out"
mkdir -p inputs

python3 - <<'EOF'
import numpy as np

rng = np.random.default_rng(16)


def write(name, text):
    with open(f"inputs/{name}", "w", encoding="utf-8") as f:
        f.write(text)


for width in (6, 12):
    write(f"table{width}.txt", "\n".join(repr(float(v)) for v in rng.normal(size=1 << width)) + "\n")


def poly_text(num_vars, masks, coefficients):
    lines = []
    for mask, c in zip(masks, coefficients):
        bits = [f"k{j}" for j in range(num_vars) if mask >> j & 1]
        lines.append(f"{c!r}: {'*'.join(bits) or '1'}")
    return "; ".join(lines)


# dense: every subset of 4 key bits, values kept inside [0, 2^8)
dense = poly_text(4, range(16), [float(v) for v in np.r_[100.0, rng.uniform(-6, 6, 15)]])
sparse = poly_text(6, [0, 1, 6, 33, 40], [float(v) for v in rng.uniform(-3, 3, 5)])
write("linear.poly", "1.2: 1\n0.4: k0\n0.8: k1\n")
write("controlled.poly", "3: k1\n")
write("demo.poly", "0.725: 1\n2.451: k1\n2.716: k2\n1.321: k0*k2\n")
write("random.poly", dense.replace("; ", "\n") + "\n")
write("huge-index.poly", "1: k99999999999999999999\n")
write("spellings.poly", "0.5: 1\n1.25: k01\n2: k0*k0\n0.75: k01*k0\n")
write("wide.poly", "40503.37: 1\n-12345.678: k0\n")
configs = {
    "reference": "n = 3\nm = 4\nweights = sin2\npoly = 0.725: 1; 2.451: k1; 2.716: k2; 1.321: k0*k2\n",
    "scaled": "n = 3\nm = 10\nscale = 64\nweights = sin2\npoly_file = demo.poly\n",
    "twos-identity": "n = 1\nm = 3\nweights = 1 1\npoly = -2: 1; 3: k0\ndomain = twos\n",
    "dense": f"n = 4\nm = 8\nweights = {' '.join(repr(float(v)) for v in rng.uniform(0, 1, 16))}\n"
    f"poly = {dense}\n",
    "sparse-twos": f"n = 6\nm = 6\nweights = uniform\npoly = {sparse}\ndomain = twos\n",
    "integer-hash": "n = 2\nm = 3\nweights = 1 2 3 4\nhash = 0 1 4 9 16 25 36 49\npoly = 1: 1; 2: k0; 3: k1\n",
    "constant": "n = 2\nm = 4\nweights = uniform\nhash = uniform\npoly = 5: 1\n",
    "out-of-range": "n = 2\nm = 2\npoly = 3: 1; 2: k0\n",
    "one-controlled-term": "n = 2\nm = 3\nweights = 1 2 3 4\npoly = 3: k1\n",
    "huge-weight": "n = 2\nm = 3\nweights = 1e200 0 0 0\npoly = 1: 1; 2: k0; 3: k1\n",
    "huge-index": "n = 2\nm = 3\npoly = 1: k99999999999999999999\n",
    "zero-weights": "n = 2\nm = 3\nweights = 0 0 0 0\npoly = 1: 1; 2: k0; 3: k1\n",
    "zero-hash": "n = 2\nm = 3\nhash = 0 0 0 0 0 0 0 0\npoly = 1: 1; 2: k0; 3: k1\n",
    "explicit-identity-scaled": "n = 2\nm = 3\nscale = 2\nweights = 1 2 3 4\nhash = 0 1 2 3 4 5 6 7\n"
    "poly = 1: 1; 0.5: k0; 1: k1\n",
}
# a 16-qubit value register: the readout's phase table is streamed in slices of its register
wide = poly_text(2, range(4), [float(v) for v in np.r_[30000.0, rng.uniform(-9000, 9000, 3)]])
configs["dense-m16"] = f"n = 2\nm = 16\nweights = {' '.join(repr(float(v)) for v in rng.uniform(0, 1, 4))}\npoly = {wide}\n"
# the 24-qubit cap, (n, m) = (10, 14): the readout splits its value register into 7-bit baby and giant steps
cap = poly_text(10, [0, 1, 6, 33, 40, 300, 513, 1023], [float(v) for v in np.r_[8000.0, rng.uniform(-900, 900, 7)]])
configs["sparse-cap"] = f"n = 10\nm = 14\nweights = sin2\npoly = {cap}\n"
# every subset of 8 key bits: the Moebius transform of values inside [0, 2^4), one poly_file line per term
table = rng.uniform(0.25, 15.75, 256)
for bit in range(8):
    pairs = table.reshape(-1, 2, 1 << bit)
    pairs[:, 1] -= pairs[:, 0]
write("dense-8-4.poly", poly_text(8, range(256), [float(v) for v in table]).replace("; ", "\n") + "\n")
configs["dense-8-4"] = "n = 8\nm = 4\nweights = sin2\npoly_file = dense-8-4.poly\n"
for name, text in configs.items():
    write(f"{name}.cfg", text)
# the reference config as some editors save it, behind a UTF-8 byte-order mark
with open("inputs/byte-order-mark.cfg", "w", encoding="utf-8-sig") as f:
    f.write(configs["reference"])
EOF

run() {  # run NAME ARGS...: the output and exit code of "qinterp ARGS..." into NAME.txt
    local name=$1 code=0
    shift
    python3 -m qinterp.cli "$@" > "$name.txt" 2>&1 || code=$?
    echo "exit $code" >> "$name.txt"
}

run_digest() {  # run_digest NAME ARGS...: as run, with the sha256 of a JSON state dump in place of stdout
    local name=$1 code=0
    shift
    python3 -m qinterp.cli "$@" > "$name.stdout" 2> "$name.txt" || code=$?
    echo "stdout sha256 $(sha256sum < "$name.stdout" | cut -d ' ' -f 1)" >> "$name.txt"
    # beside the digest, the amplitudes at indices 0, 1, M/2 - 1, M/2 and M - 1, so a moved digest shows by how much
    if [ "$code" -eq 0 ]; then
        python3 - "$name.stdout" >> "$name.txt" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as f:
    amplitudes = json.load(f)["amplitudes"]
size = len(amplitudes)
for index in (0, 1, size // 2 - 1, size // 2, size - 1):
    re, im = amplitudes[index]
    print(f"amplitude {index} {re!r} {im!r}")
PY
    fi
    echo "exit $code" >> "$name.txt"
    rm "$name.stdout"
}

for domain in unsigned twos; do
    for m in 6 12; do
        modulus=$((1 << m))
        if [ "$domain" = unsigned ]; then lo=0; hi=$modulus; else lo=$((-modulus / 2)); hi=$((modulus / 2)); fi
        for source in nu2 lambda table; do
            path=$source
            [ "$source" = table ] && path=inputs/table$m.txt
            for t in "$lo" "$((hi - 1)).7" "$((lo + modulus * 7 / 10)).3"; do
                run "interpolate-$source-$domain-m$m-t$t" interpolate --source "$path" -m "$m" --domain "$domain" -t "$t"
            done
            run "interpolate-$source-$domain-m$m-sweep" interpolate --source "$path" -m "$m" --domain "$domain" \
                --t-start "$lo" --t-stop "$((hi - 1)).4" --t-steps 256
        done
    done
done
run interpolate-nu2-m6-outside interpolate --source nu2 -m 6 -t 64
run interpolate-nu2-m6-sweep-overflow interpolate --source nu2 -m 6 --t-start 0 --t-stop 1e308 --t-steps 4
run interpolate-nu2-m6-sweep-csv interpolate --source nu2 -m 6 --t-start 1 --t-stop 60 --t-steps 37 --csv sweep.csv
# far from most of its samples, where a kernel numerator taken as sin(pi (t - k)) is least accurate
run interpolate-nu2-m16-t65535.3 interpolate --source nu2 -m 16 -t 65535.3

for config in inputs/*.cfg; do
    name=${config#inputs/}
    run "sum-${name%.cfg}" sum "$config"
done

for t in 3 2.7 -3.25; do
    run "encode-m3-t$t" encode -m 3 -t "$t" --domain twos
    run "encode-m3-t$t-real-svg" encode -m 3 -t "$t" --domain twos --phase-correct --out svg
done
run encode-m10-json encode -m 10 -t 517.3
for m in 16 17; do
    run_digest "encode-m$m-raw-digest" encode -m "$m" -t 40503.37
    run_digest "encode-m$m-real-digest" encode -m "$m" -t 40503.37 --phase-correct
    run_digest "encode-m$m-twos-real-digest" encode -m "$m" -t -12345.678 --domain twos --phase-correct
done
run encode-m4-svg-file encode -m 4 -t 9.5 --out svg -o encode.svg

run dict-linear-json dict inputs/linear.poly -n 2 -m 3
run dict-linear-prime-svg dict inputs/linear.poly -n 2 -m 3 --prime --out svg
run dict-controlled-json dict inputs/controlled.poly -n 2 -m 3
run dict-controlled-prime-json dict inputs/controlled.poly -n 2 -m 3 --prime
run dict-random-prime-json dict inputs/random.poly -n 4 -m 8 --prime
run dict-spellings-json dict inputs/spellings.poly -n 2 -m 3
run dict-spellings-prime-json dict inputs/spellings.poly -n 2 -m 3 --prime
run dict-huge-index-json dict inputs/huge-index.poly -n 2 -m 3
# F' past 15 value qubits: the correction table has one row per key and is folded into the Fourier transform
run_digest dict-wide-m16-prime-digest dict inputs/wide.poly -n 1 -m 16 --prime
run dict-demo-twos-svg dict inputs/demo.poly -n 3 -m 4 --domain twos --out svg -o dict.svg

run repro repro --artifacts artifacts
