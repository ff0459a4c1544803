"""Textbook Bernoulli and Euler references, independent of zetakit.exact.

They are built once per session up to index 512, every index the catalogue
reaches at PARAM_CAP = 256, and shared by the exact and catalogue tests.
"""

import math
from fractions import Fraction

import pytest

REF_TOP = 512


def akiyama_tanigawa(n):
    """Bernoulli numbers via the Akiyama-Tanigawa triangle (B1 = +1/2 there)."""
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def sech_series_euler(n_max):
    """Euler numbers from the reciprocal power series of cosh."""
    cosh = [Fraction(1, math.factorial(k)) if k % 2 == 0 else Fraction(0) for k in range(n_max + 1)]
    inv = [Fraction(1)]
    for n in range(1, n_max + 1):
        inv.append(-sum(cosh[j] * inv[n - j] for j in range(1, n + 1)))
    return [inv[k] * math.factorial(k) for k in range(n_max + 1)]


@pytest.fixture(scope="session")
def bernoulli_ref():
    """B_0 ... B_512 with B_1 = -1/2, the convention zetakit uses."""
    out = akiyama_tanigawa(REF_TOP)
    out[1] = -out[1]
    return out


@pytest.fixture(scope="session")
def euler_ref():
    """E_0 ... E_512."""
    return sech_series_euler(REF_TOP)
