"""Seeded inputs, timed calls and oracles of the four benchmark workloads.

A workload is a sequence of rounds.  Every round of a workload has the same
fixed composition of op shapes (register widths, polynomial density, source
kind), so runs with different seeds do the same amount of work; the seed only
draws the values inside those shapes.  The ops of a round run in a fixed
order, so the allocation history, and with it the peak memory, is the same
for every seed.  Round ``r`` is drawn from ``default_rng((seed, r + 1))`` and
the warm-up op from ``default_rng((seed, 0))``, so a round does not depend on
how many rounds ran before it.

Each :class:`Op` carries the timed call, an untimed oracle and a check.  The
oracles are the benchmark's own: kernel sums built from
``kernels.fejer_kernel_row`` and ``patterns.kernel_double_sum``, bound here at
import so a traced run never counts them as program calls.
"""

from __future__ import annotations

import io
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qinterp import cli, encoding
from qinterp.dictionary import BinaryPolynomial, polynomial_from_table
from qinterp.kernels import EncodingDomain
from qinterp.kernels import fejer_kernel_row as oracle_kernel_row
from qinterp.patterns import kernel_double_sum as oracle_double_sum

AMPLITUDE_TOL = 1e-8  # CLI numbers are printed with 9 significant digits
STATE_TOL = 1e-9
REPRO_PASS_ROWS = 16
REPRO_ARTIFACTS = 16
REPRO_ROUND = 10
T_STEPS = 256

MIXED_PROBE_WIDTH = 18  # states of 4 MiB and more, twice the L2, use speed.py's mixed probe

_DOMAINS = {"unsigned": EncodingDomain.UNSIGNED, "twos": EncodingDomain.TWOS_COMPLEMENT}


@dataclass
class Op:
    """One user-level unit of work.

    ``call`` is the only timed part.  ``oracle`` computes the expected result
    before the op runs and ``check`` compares the output against it,
    returning ``None`` or the reason the op failed.  ``inputs`` describes
    what the program receives, for the determinism test.  ``kind`` names
    the op's cost class (register widths, density) and its variant.
    """

    kind: str
    inputs: tuple
    call: Callable[[], Any]
    oracle: Callable[[], Any]
    check: Callable[[Any, Any], str | None]
    expect: Any = None
    cleanup: Callable[[], None] | None = None
    mixed_probe: bool = False  # normalise by speed.py's mixed probe, not the compact one


@dataclass
class Context:
    seed: int
    workdir: Path

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, stream))

    def round_dir(self, r: int) -> Path:
        """Folder of round ``r``'s input files; round -1 holds the warm-up op."""
        path = self.workdir / f"r{r}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def drop_round(self, r: int):
        shutil.rmtree(self.workdir / f"r{r}", ignore_errors=True)


@dataclass(frozen=True)
class Workload:
    """A workload: its round generator, warm-up and run-length rules.

    At least ``min_rounds`` rounds run, so every run has at least
    ``min_rounds`` times the round's size in samples.  The tail percentile is
    chosen from that count, so it does not move when the program gets faster.
    """

    name: str
    make_round: Callable[[Context, int], list[Op]]
    make_warmup: Callable[[Context], Op]
    min_rounds: int


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process, capturing what it prints."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _normalized(t: float, domain: str, modulus: int) -> float:
    return t + modulus if domain == "twos" and t < 0 else t


def _domain_range(domain: str, modulus: int) -> tuple[float, float]:
    return (0.0, float(modulus)) if domain == "unsigned" else (-modulus / 2, modulus / 2)


# ---------------------------------------------------------------- readout-sweep


def _sweep_samples(source: str, modulus: int, table: np.ndarray | None) -> np.ndarray:
    k = np.arange(modulus, dtype=np.float64)
    if source == "nu2":
        profile = np.sin(k * np.pi / modulus) ** 2
    elif source == "lambda":
        profile = k
    else:
        profile = table
    return profile / np.linalg.norm(profile)


def _sweep_op(rng: np.random.Generator, folder: Path, tag: str, width: int, source: str) -> Op:
    modulus = 1 << width
    domain = "unsigned" if rng.random() < 0.5 else "twos"
    lo, hi = _domain_range(domain, modulus)
    span = hi - lo
    t_start = float(lo + rng.random() * span / 2)
    t_stop = float(t_start + span / 4 + rng.random() * (hi - t_start - span / 4))
    table = None
    source_arg = source
    if source == "table":
        table = rng.normal(size=modulus)
        path = folder / f"{tag}.table"
        path.write_text("\n".join(repr(float(v)) for v in table) + "\n", encoding="utf-8")
        source_arg = str(path)
    csv = folder / f"{tag}.csv"
    argv = [
        "interpolate", "--source", source_arg, "-m", str(width), "--domain", domain,
        f"--t-start={t_start!r}", f"--t-stop={t_stop!r}", "--t-steps", str(T_STEPS),
        "--csv", str(csv),
    ]  # fmt: skip

    def oracle():
        samples = _sweep_samples(source, modulus, table)
        ts = [t_start + i * (t_stop - t_start) / T_STEPS for i in range(T_STEPS)]
        values = [
            float(np.dot(samples, oracle_kernel_row(modulus, _normalized(t, domain, modulus))))
            for t in ts
        ]
        return ts, values

    def check(output, expect):
        rc, _ = output
        if rc != 0:
            return f"exit code {rc}"
        lines = csv.read_text(encoding="utf-8").splitlines()
        if lines[0] != "t,quantum,classical,exact" or len(lines) != T_STEPS + 1:
            return f"unexpected CSV shape ({len(lines)} lines)"
        for line, t, value in zip(lines[1:], *expect):
            fields = line.split(",")
            if abs(float(fields[0]) - t) > 1e-6 * max(1.0, abs(t)):
                return f"row t={fields[0]} does not match the requested t={t!r}"
            for name, field in (("quantum", fields[1]), ("classical", fields[2])):
                if not abs(float(field) - value) <= AMPLITUDE_TOL:
                    return f"{name} {field} at t={t!r} differs from the kernel sum {value!r}"
        return None

    return Op(f"m{width}-{source}", tuple(argv), lambda: run_cli(argv), oracle, check)


def _readout_round(ctx: Context, r: int) -> list[Op]:
    rng = ctx.rng(r + 1)
    folder = ctx.round_dir(r)
    # Twelve cheap m=6 sweeps and one m=12 sweep whose source rotates by
    # round: the median and the p75 tail fall inside the m=6 block, while the
    # m=12 sweep carries over half of the busy time and so of ops_per_s.
    shapes = [(6, s) for s in ("nu2", "lambda", "table") * 4]
    shapes.append((12, ("nu2", "lambda", "table")[r % 3]))
    return [_sweep_op(rng, folder, f"op{i}", *shape) for i, shape in enumerate(shapes)]


def _readout_warmup(ctx: Context) -> Op:
    return _sweep_op(ctx.rng(0), ctx.round_dir(-1), "warmup", 6, "nu2")


# ---------------------------------------------------------------- sum-grid

# (n, m, dense).  Ordered by cost at the time of writing: eight small cells,
# four dense (8, 4) cells where the Python polynomial loops dominate (the
# median sits in the middle of this block), five sparse (8, 10) cells (the
# p75 tail sits in the middle of this block; the cost of a sparse cell hangs
# on its drawn terms, so the block's upper end spreads) and three heavy
# cells, among them the (8, 12) corner.
SUM_CELLS = (
    (3, 4, True), (3, 4, False), (4, 6, True), (4, 5, False),
    (5, 8, False), (5, 6, True), (6, 6, False), (6, 4, True),
    (8, 4, True), (8, 4, True), (8, 4, True), (8, 4, True),
    (8, 10, False), (8, 10, False), (8, 10, False), (8, 10, False), (8, 10, False),
    (8, 12, False), (8, 8, True), (7, 10, True),
)  # fmt: skip


def _term_text(mask: int, num_vars: int) -> str:
    if mask == 0:
        return "1"
    return "*".join(f"k{j}" for j in range(num_vars) if mask >> j & 1)


def _sum_poly(rng, n: int, m: int, dense: bool, domain: str, scale: int) -> dict[int, float]:
    modulus = 1 << m
    lo, hi = _domain_range(domain, modulus)
    if dense:
        # values strictly inside the domain even after scaling, then the
        # interpolating polynomial with all 2^n terms
        values = rng.uniform(lo + 0.25, hi - 0.25, size=1 << n) / scale
        return dict(polynomial_from_table(values).terms)
    masks = [0] + [int(x) for x in rng.choice(np.arange(1, 1 << n), size=n, replace=False)]
    bound = (max(abs(lo), hi) - 0.5) / (scale * (n + 1))
    low = 0.0 if domain == "unsigned" else -bound
    return {mask: float(rng.uniform(low, bound)) for mask in masks}


def _vector_arg(rng, choice: str, length: int) -> tuple[str, np.ndarray]:
    if choice == "explicit":
        values = rng.uniform(0.1, 1.0, size=length)
        return " ".join(repr(float(v)) for v in values), values
    builtin = {
        "uniform": np.ones(length),
        "sin2": np.sin(np.arange(length) * np.pi / length) ** 2,
        "identity": np.arange(length, dtype=np.float64),
    }
    return choice, builtin[choice]


def _sum_op(rng, folder: Path, tag: str, n: int, m: int, dense: bool) -> Op:
    domain = "unsigned" if rng.random() < 0.5 else "twos"
    weights_text, weights = _vector_arg(rng, ("uniform", "sin2", "explicit")[rng.integers(3)], 1 << n)
    hash_text, hashes = _vector_arg(rng, ("identity", "uniform", "explicit")[rng.integers(3)], 1 << m)
    scale = int(rng.choice([1, 2, 4])) if hash_text == "identity" else 1
    terms = _sum_poly(rng, n, m, dense, domain, scale)
    lines = [f"n = {n}", f"m = {m}", f"domain = {domain}"]
    poly_lines = [f"{c!r}: {_term_text(mask, n)}" for mask, c in sorted(terms.items())]
    if dense:
        (folder / f"{tag}.poly").write_text("\n".join(poly_lines) + "\n", encoding="utf-8")
        lines.append(f"poly_file = {tag}.poly")
    else:
        lines.append("poly = " + "; ".join(poly_lines))
    lines += [f"weights = {weights_text}", f"hash = {hash_text}"]
    if scale != 1:
        lines.append(f"scale = {scale}")
    config = folder / f"{tag}.cfg"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["sum", str(config)]

    def oracle():
        poly = BinaryPolynomial(n, terms)
        if scale != 1:
            poly = poly.scaled(scale)
        a = weights / np.linalg.norm(weights)
        b = hashes / np.linalg.norm(hashes)
        return oracle_double_sum(a, poly, b, _DOMAINS[domain])

    def check(output, expect):
        rc, text = output
        if rc != 0:
            return f"exit code {rc}"
        fields = dict(line.split(None, 1) for line in text.splitlines() if line.strip())
        amplitude = float(fields["amplitude"])
        if not abs(amplitude - expect) <= AMPLITUDE_TOL:
            return f"amplitude {amplitude!r} differs from kernel_double_sum {expect!r}"
        return None

    kind = f"n{n}m{m}-{'dense' if dense else 'sparse'}"
    wide = n + m >= MIXED_PROBE_WIDTH
    return Op(kind, tuple(argv), lambda: run_cli(argv), oracle, check, mixed_probe=wide)


def _sum_round(ctx: Context, r: int) -> list[Op]:
    rng = ctx.rng(r + 1)
    folder = ctx.round_dir(r)
    return [_sum_op(rng, folder, f"cell{i}", *cell) for i, cell in enumerate(SUM_CELLS)]


def _sum_warmup(ctx: Context) -> Op:
    return _sum_op(ctx.rng(0), ctx.round_dir(-1), "warmup", 8, 4, True)


# ---------------------------------------------------------------- encode-wide

# Seventeen q=16 encodes, then one each at q=17, 18 and 20.  The median and
# the p75 tail fall inside the q=16 block; the q=20 encode (16 MiB state)
# carries half of the busy time.
ENCODE_WIDTHS = (16,) * 17 + (17, 18, 20)


def _encode_op(rng, width: int, corrected: bool, integer: bool) -> Op:
    modulus = 1 << width
    domain = "unsigned" if rng.random() < 0.5 else "twos"
    lo, hi = _domain_range(domain, modulus)
    if integer:
        t = float(rng.integers(int(lo), int(hi)))
    else:
        t = float(rng.uniform(lo, hi))
    encode = encoding.encode_value_real if corrected else encoding.encode_value

    def oracle():
        return oracle_kernel_row(modulus, _normalized(t, domain, modulus))

    def check(state, row):
        amps = state.amplitudes
        norm_error = abs(float(np.linalg.norm(amps)) - 1.0)
        if norm_error > STATE_TOL:
            return f"norm off by {norm_error:.3e}"
        if corrected:
            worst = float(np.max(np.abs(amps.real - row)))
            imag = float(np.max(np.abs(amps.imag)))
            if imag > STATE_TOL:
                return f"imaginary part {imag:.3e} after phase correction"
        else:
            worst = float(np.max(np.abs(np.abs(amps) - np.abs(row))))
        if worst > STATE_TOL:
            return f"amplitudes differ from the kernel row by {worst:.3e}"
        return None

    kind = f"q{width}-{'real' if corrected else 'raw'}"
    return Op(
        kind,
        (encode.__name__, width, repr(t), domain),
        lambda: encode(width, t, _DOMAINS[domain]),
        oracle,
        check,
        mixed_probe=width >= MIXED_PROBE_WIDTH,
    )


def _encode_round(ctx: Context, r: int) -> list[Op]:
    rng = ctx.rng(r + 1)
    ops = []
    for width in ENCODE_WIDTHS:
        if width == 16:
            ops.append(_encode_op(rng, width, bool(rng.random() < 0.5), bool(rng.random() < 0.25)))
        else:
            # Wide encodes take a fractional t and alternate corrected and raw
            # by round, so the peak memory (set by the q=20 encode and its
            # oracle row) does not hang on the seed.
            ops.append(_encode_op(rng, width, r % 2 == 0, False))
    return ops


def _encode_warmup(ctx: Context) -> Op:
    return _encode_op(ctx.rng(0), 16, True, False)


# ---------------------------------------------------------------- repro


def _read_tree(folder: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir())}


def _repro_dir(ctx: Context, folder: Path, tag: str) -> Path:
    # The seed only names the artifact directory: repro takes no other input.
    return folder / f"artifacts-{ctx.seed:x}-{tag}"


def _repro_op(ctx: Context, folder: Path, tag: str, reference: Path | None) -> Op:
    """One repro run; its artifacts must equal those in ``reference``, when given."""
    out = _repro_dir(ctx, folder, tag)
    argv = ["repro", "--artifacts", str(out)]

    def check(output, expect):
        rc, text = output
        if rc != 0:
            return f"exit code {rc}"
        passed = sum(1 for line in text.splitlines() if line.rstrip().endswith(" PASS"))
        if passed != REPRO_PASS_ROWS:
            return f"{passed} PASS rows, expected {REPRO_PASS_ROWS}"
        files = _read_tree(out)
        if len(files) != REPRO_ARTIFACTS:
            return f"{len(files)} artifacts, expected {REPRO_ARTIFACTS}"
        if expect is not None:
            changed = sorted(name for name in files if files[name] != expect.get(name))
            if changed or files.keys() != expect.keys():
                return f"artifacts differ from the warm-up's: {changed}"
        return None

    if reference is None:  # the warm-up op, whose artifacts are the reference
        return Op("repro", tuple(argv), lambda: run_cli(argv), lambda: None, check)
    return Op(
        "repro",
        tuple(argv),
        lambda: run_cli(argv),
        lambda: _read_tree(reference),
        check,
        cleanup=lambda: shutil.rmtree(out, ignore_errors=True),
    )


def _repro_round(ctx: Context, r: int) -> list[Op]:
    folder = ctx.round_dir(r)
    reference = _repro_dir(ctx, ctx.round_dir(-1), "warmup")
    return [_repro_op(ctx, folder, f"op{i}", reference) for i in range(REPRO_ROUND)]


def _repro_warmup(ctx: Context) -> Op:
    return _repro_op(ctx, ctx.round_dir(-1), "warmup", None)


def make_workloads() -> dict[str, Workload]:
    return {
        "readout-sweep": Workload("readout-sweep", _readout_round, _readout_warmup, 4),
        "sum-grid": Workload("sum-grid", _sum_round, _sum_warmup, 2),
        "encode-wide": Workload("encode-wide", _encode_round, _encode_warmup, 2),
        "repro": Workload("repro", _repro_round, _repro_warmup, 4),
    }
