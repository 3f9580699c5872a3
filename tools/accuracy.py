#!/usr/bin/env python3
"""Accuracy record of wide encodes and of weighted-sum readouts at one or more git revisions.

    python3 tools/accuracy.py [--wide] -o ACCURACY.json REV [REV ...]

Each REV is extracted with ``git archive`` into a temporary directory, as
tools/compare_outputs.sh does, and its qinterp runs in a subprocess with one
thread.  For each width from 16 to 22 qubits (23 and 24 with ``--wide``, as
``pytest -m wide``) and each of eight seeded targets, raw and phase-corrected
(16 encodes per width), it records:

- ``gap_eps``: the worst ``|state() - apply(zero_state)|`` over the encodes,
  in units of eps, and the encode that reached it;
- ``imag_residual``: the worst ``|imag|`` of a corrected encode;
- ``kernel_error_eps``: the worst ``|real - K(t - k)|`` of a corrected encode
  over 1000 seeded indices ``k``, in units of eps, against the kernel
  ``sin(pi d) / (M sin(pi d / M))`` in 40-digit mpmath arithmetic.

The targets are the tests' ``seeded_targets(width)`` (an integer and a
fractional target per domain, from ``default_rng(width)``) and four fractional
ones from ``default_rng(1000 + width)``; ``NAMED`` adds single cases.  With
two or more REVs, ``against_first`` gives, per width, each later revision's
largest move at any sampled index in its kernel error, in eps.  A 24-qubit
width holds about 0.8 GB at its peak; the widths run one at a time.

The readout rows take ``generalized_inner_product``'s circuit (load the key
weights, the phase-corrected dictionary, Hadamards on the keys, unload the
value weights) on each (n, m) cell of ``READOUT_CELLS``, the sum grid's, with
a dense and a sparse polynomial in each domain from ``default_rng((3000, n,
m))``.  Each row gives ``amplitude_eps``, the worst ``|readout - amplitude of
apply(zero_state)|``, and ``keys_eps``, the worst gap of the kept keys to
the state's value-0 slice, in units of eps, and the case that reached each.
``readout_digest`` hashes every readout's bytes, so ``against_first`` can say
whether a later revision reads the same bits.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import mpmath
import numpy as np

EPS = float(np.finfo(float).eps)
WIDTHS, WIDE = range(16, 23), (23, 24)
SAMPLES = 1000
NAMED = {23: [("TWOS_COMPLEMENT", 3391177.2190178474)]}  # reached 4.35 eps with the correction run as its own table
READOUT_CELLS = [(3, 4), (4, 5), (4, 6), (5, 6), (5, 8), (6, 4), (6, 6), (7, 10), (8, 4), (8, 8), (8, 10), (8, 12)]

# Runs inside a revision's tree: one JSON object per width on stdout.
CHILD = r"""
import json, sys
import numpy as np
from qinterp import EncodingDomain, zero_state
from qinterp.encoding import ValueEncoding, real_encoding_circuit, value_encoding_circuit

eps = float(np.finfo(float).eps)


def readout_row(cell):
    from qinterp import BinaryPolynomial, Circuit, HadamardLayer, RegisterLayout, StatePrep, dictionary_circuit
    from qinterp.dictionary import polynomial_from_table

    n, m = cell["n"], cell["m"]
    layout = RegisterLayout(n, m)
    row = {"n": n, "m": m, "amplitude_eps": -1.0, "keys_eps": -1.0}
    digest = []
    for case in cell["cases"]:
        if "table" in case:
            poly = polynomial_from_table(case["table"])
        else:
            poly = BinaryPolynomial(n, dict(zip(case["masks"], case["coefs"])))
        domain = EncodingDomain[case["domain"]]
        ops = (
            StatePrep(layout.key_register, np.array(case["a"])),
            *dictionary_circuit(layout, poly, domain, phase_corrected=True, prepare_keys=False).ops,
            HadamardLayer(layout.key_register),
            StatePrep(layout.value_register, np.array(case["b"])).adjoint(),
        )
        circuit = Circuit(n + m, ops)
        full = circuit.apply(zero_state(n + m)).amplitudes.reshape(1 << n, 1 << m)
        amplitude, kept = circuit.readout(layout), circuit.readout(layout, keep_keys=True)
        digest += [np.complex128(amplitude).tobytes().hex(), kept.tobytes().hex()]
        label = f"{case['kind']} {case['domain']}"
        for key, gap in (("amplitude", abs(amplitude - full[0, 0])), ("keys", np.max(np.abs(kept - full[:, 0])))):
            if gap / eps > row[f"{key}_eps"]:
                row[f"{key}_eps"], row[f"{key}_case"] = float(gap) / eps, label
    row["digest"] = digest
    return row


for case in map(json.loads, sys.stdin):
    if "cells" in case:
        print(json.dumps({"readout": [readout_row(cell) for cell in case["cells"]]}), flush=True)
        continue
    width, indices = case["width"], np.array(case["indices"])
    rows = []
    for name, t in case["targets"]:
        domain = EncodingDomain[name]
        row = {"domain": name, "target": t, "normalized": ValueEncoding(width, t, domain).normalized_target}
        for label, build in (("raw", value_encoding_circuit), ("corrected", real_encoding_circuit)):
            circuit = build(width, t, domain)
            expected = circuit.apply(zero_state(width)).amplitudes
            state = circuit.state().amplitudes
            if label == "corrected":
                row["imag"] = float(np.max(np.abs(state.imag)))
                row["real_at"] = state.real[indices].tolist()
            row[f"gap_{label}_eps"] = float(np.max(np.abs(np.subtract(state, expected, out=state)))) / eps
            del expected, state
        rows.append(row)
    print(json.dumps({"width": width, "rows": rows}), flush=True)
"""


def targets(width: int) -> list[tuple[str, float]]:
    modulus = 1 << width
    lows = (("UNSIGNED", 0), ("TWOS_COMPLEMENT", -modulus // 2))
    rng = np.random.default_rng(width)
    out = []
    for name, low in lows:
        out.append((name, float(rng.integers(low, low + modulus))))
        out.append((name, float(rng.uniform(low, low + modulus))))
    rng = np.random.default_rng(1000 + width)
    out += [(name, float(rng.uniform(low, low + modulus))) for name, low in lows for _ in range(2)]
    return out + NAMED.get(width, [])


def readout_cases(n: int, m: int) -> list[dict]:
    """A dense and a sparse polynomial per domain on the (n, m) cell, with unit weight vectors."""
    rng = np.random.default_rng((3000, n, m))
    modulus, cases = 1 << m, []
    for name, lo in (("UNSIGNED", 0.0), ("TWOS_COMPLEMENT", -modulus / 2)):
        hi = lo + modulus
        for kind in ("dense", "sparse"):
            case = {"domain": name, "kind": kind}
            if kind == "dense":
                case["table"] = rng.uniform(lo + 0.01, hi - 0.01, 1 << n).tolist()
            else:  # n + 1 terms whose sums stay inside the domain
                masks = [0, *sorted(rng.choice(np.arange(1, 1 << n), n, replace=False).tolist())]
                bound = (max(-lo, hi) - 0.01) / len(masks)
                low = 0.0 if name == "UNSIGNED" else -bound
                case["masks"], case["coefs"] = masks, rng.uniform(low, bound, len(masks)).tolist()
            for key, size in (("a", 1 << n), ("b", modulus)):
                vector = rng.uniform(0.1, 1.0, size)
                case[key] = (vector / np.linalg.norm(vector)).tolist()
            cases.append(case)
    return cases


def indices(width: int) -> list[int]:
    return sorted(np.random.default_rng(2000 + width).choice(1 << width, SAMPLES, replace=False).tolist())


def kernel_40(modulus: int, t: float, ks) -> list:
    """``sin(pi (t - k)) / (M sin(pi (t - k) / M))`` at the double ``t`` in 40 digits; 1 or 0 at an integer."""
    with mpmath.workdps(40):
        if float(t).is_integer():
            return [mpmath.mpf(int(k == t)) for k in ks]
        return [mpmath.sinpi(d) / (modulus * mpmath.sinpi(d / modulus)) for d in (mpmath.mpf(t) - k for k in ks)]


def run_revision(root: Path, rev: str, cases: list[dict]) -> tuple[str, list[dict]]:
    commit = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()  # fmt: skip
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(root), "archive", commit, "src"], check=True, capture_output=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "OMP_NUM_THREADS": "1"}
        out = subprocess.run(
            [sys.executable, "-c", CHILD], input="".join(json.dumps(c) + "\n" for c in cases),
            env=env, check=True, capture_output=True, text=True,
        ).stdout  # fmt: skip
    return commit, [json.loads(line) for line in out.splitlines()]


def summary(result: dict, kernels: dict) -> tuple[dict, list[float]]:
    """A width's record, and its per-index kernel errors in eps in a fixed order."""
    width, rows = result["width"], result["rows"]
    errors = []
    for row in rows:
        want = kernels[width, row["domain"], row["target"]]
        errors += [float(abs(mpmath.mpf(got) - k)) / EPS for got, k in zip(row["real_at"], want)]
    worst = max(rows, key=lambda r: max(r["gap_raw_eps"], r["gap_corrected_eps"]))
    kind = "raw" if worst["gap_raw_eps"] >= worst["gap_corrected_eps"] else "corrected"
    record = {
        "width": width,
        "gap_eps": worst[f"gap_{kind}_eps"],
        "gap_case": f"{kind} {worst['domain']} t={worst['target']!r}",
        "imag_residual": max(r["imag"] for r in rows),
        "kernel_error_eps": max(errors),
    }
    return record, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revs", nargs="+", metavar="REV")
    parser.add_argument("-o", "--out", required=True, help="JSON file to write")
    parser.add_argument("--wide", action="store_true", help="also survey 23 and 24 qubits")
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    widths = [*WIDTHS, *(WIDE if args.wide else ())]
    cases = [{"width": w, "targets": targets(w), "indices": indices(w)} for w in widths]
    cases.append({"cells": [{"n": n, "m": m, "cases": readout_cases(n, m)} for n, m in READOUT_CELLS]})
    kernels = {}  # (width, domain, target): the 40-digit kernel at the sampled indices, shared by the revisions
    record = {"widths": widths, "samples_per_target": SAMPLES, "readout_cells": READOUT_CELLS, "revisions": []}
    first_errors = first_digest = None
    for rev in args.revs:
        commit, results = run_revision(root, rev, cases)
        readout = results.pop()["readout"]
        digest = hashlib.sha256("".join(h for row in readout for h in row.pop("digest")).encode()).hexdigest()
        rows, all_errors = [], {}
        for result in results:
            width = result["width"]
            for row in result["rows"]:
                key = (width, row["domain"], row["target"])
                if key not in kernels:
                    kernels[key] = kernel_40(1 << width, row["normalized"], cases[widths.index(width)]["indices"])
            summary_row, all_errors[width] = summary(result, kernels)
            rows.append(summary_row)
        entry = {"rev": rev, "commit": commit, "rows": rows, "readout": readout, "readout_digest": digest}
        if first_errors is None:
            first_errors, first_digest = all_errors, digest
        else:
            entry["against_first"] = {
                str(w): max(abs(a - b) for a, b in zip(all_errors[w], first_errors[w])) for w in widths
            }
            entry["against_first"]["readout_bits_match"] = digest == first_digest
        record["revisions"].append(entry)
        print(json.dumps(entry), file=sys.stderr)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
