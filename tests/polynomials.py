"""Random polynomials for the property tests of the dictionary and its patterns."""

import numpy as np

from qinterp import BinaryPolynomial, EncodingDomain, polynomial_from_table
from qinterp.kernels import domain_bounds

KINDS = ("dense", "sparse", "integer")


def random_polynomial(rng, num_vars, dense):
    """Coefficients in [-1, 1] on every subset (dense) or on ``num_vars + 1`` subsets."""
    if dense:
        return BinaryPolynomial(num_vars, dict(enumerate(rng.uniform(-1, 1, 1 << num_vars))))
    masks = rng.choice(1 << num_vars, size=min(num_vars + 1, 1 << num_vars), replace=False)
    return BinaryPolynomial(num_vars, {int(m): rng.uniform(-1, 1) for m in masks})


def in_domain_polynomial(rng, num_vars, value_width, domain, kind):
    """A polynomial whose every value the dictionary accepts for this register and domain.

    ``dense``: interpolates a table of values inside the domain; ``sparse``:
    ``num_vars + 1`` terms whose sums stay inside it; ``integer``: interpolates
    integers, which may also use the full unsigned range in two's complement;
    ``tenths``: sparse with coefficients on a grid of tenths, where the four
    terms under key 3 sum to 0 in decimal, so that value is 0 up to round-off
    of either sign; in the unsigned domain the terms of keys 1 and 2 are
    negative and no larger than the constant, so every value stays >= 0 in
    decimal.
    """
    modulus = 1 << value_width
    lo, hi = domain_bounds(domain, modulus)
    if kind == "dense":
        return polynomial_from_table(rng.uniform(lo + 0.01, hi - 0.01, 1 << num_vars))
    if kind == "integer":
        return polynomial_from_table(rng.integers(lo, modulus, 1 << num_vars).astype(float))
    others = rng.choice(np.arange(1, 1 << num_vars), size=min(num_vars, (1 << num_vars) - 1), replace=False)
    masks = [0] + [int(m) for m in others]
    if kind == "tenths":
        masks = list(range(min(4, 1 << num_vars))) + [m for m in masks if m >= 4]
    bound = (max(-lo, hi) - 0.01) / len(masks)
    low = 0.0 if domain is EncodingDomain.UNSIGNED else -bound
    if kind == "tenths":
        top = int(5 * bound)
        tenths = rng.integers(-top if low < 0 else 0, top + 1, len(masks))
        if num_vars >= 2:
            if low == 0:
                tenths[1:3] = -rng.integers(0, tenths[0] + 1, 2)
            tenths[3] = -tenths[:3].sum()
        return BinaryPolynomial(num_vars, {m: t / 10 for m, t in zip(masks, tenths)})
    return BinaryPolynomial(num_vars, {m: rng.uniform(low, bound) for m in masks})
