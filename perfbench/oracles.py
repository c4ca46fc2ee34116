"""Independent output oracles.

Each oracle recomputes what a CLI command must print from closed forms,
in mpmath at 40 significant digits or in exact integers, and never calls
into gamowkit.  A check returns a Verdict: whether the output passed, and
the accuracy in decimal digits of its worst value.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from math import comb, factorial

import mpmath
import numpy

mpmath.mp.dps = 40

DIGITS_CAP = 16.0
# criterion 1 of the acceptance suite: family decay to 1e-12
DECAY_TOL = 1e-12
# criteria 5 and 6: pole term to 1e-9, survival ratio to 1e-9
POLE_TOL = 1e-9


@dataclass
class Verdict:
    ok: bool
    digits: float
    detail: str = ""


def digits_of(value: float, oracle) -> float:
    """-log10 of the relative error of value against oracle, capped at 16."""
    oracle = complex(oracle) if isinstance(oracle, (complex, mpmath.mpc)) else float(oracle)
    err = abs(value - oracle)
    if err == 0:
        return DIGITS_CAP
    scale = abs(oracle)
    rel = err / scale if scale else err
    return min(DIGITS_CAP, -math.log10(rel))


class _Worst:
    """Running minimum of accuracy digits over compared values."""

    def __init__(self, tol: float):
        self.floor = -math.log10(tol)
        self.digits = DIGITS_CAP
        self.where = ""

    def compare(self, label: str, value, oracle):
        d = digits_of(value, oracle)
        if d < self.digits:
            self.digits, self.where = d, label

    def verdict(self) -> Verdict:
        ok = self.digits >= self.floor
        return Verdict(ok, self.digits, "" if ok else f"{self.where}: {self.digits:.2f} digits")


def _fail(detail: str) -> Verdict:
    return Verdict(False, 0.0, detail)


# ------------------------------------------------------------ decay-curve


def _linspace(t_max: float, steps: int):
    # the CLI grid is numpy.linspace(0, t_max, steps); the oracle takes its
    # own copy of the same floats so the t column can be compared exactly
    return [float(t) for t in numpy.linspace(0.0, t_max, steps)]


def _ket_weight(norm: str, k: int, p: int):
    if norm == "derivative":
        return mpmath.mpf(comb(k, p))
    return mpmath.mpf(1) / factorial(k - p)


def decay_expectation(params: dict) -> dict:
    """Closed-form columns of one decay-curve table, as Python floats.

    The family member W(n) has Frobenius norm G**n/n! * sqrt(binom(2n, n))
    (derivative) or G**n * sqrt(n+1) (factorial) and decays as exp(-G t).
    The weighted sum adds disjoint anti-diagonals, so its squared norm is
    the binom(r, n+1)**2-weighted sum of theirs, times (2 pi G)**2 on the
    float carrier.  The dyad |k><k| evolves to exp(-G t) v v^dagger with
    v_p = w(k, p) (-i t)**(k-p), whose norm is |v|**2.
    """
    r, norm = params["r"], params["normalization"]
    G = mpmath.mpf(params["Gamma"])
    grid = _linspace(params["t_max"], params["t_steps"])
    if norm == "derivative":
        fam0 = [G**n / factorial(n) * mpmath.sqrt(comb(2 * n, n)) for n in range(r)]
    else:
        fam0 = [G**n * mpmath.sqrt(n + 1) for n in range(r)]
    wsum0 = mpmath.sqrt(sum(comb(r, n + 1) ** 2 * fam0[n] ** 2 for n in range(r)))
    if not params["exact"]:
        wsum0 *= 2 * mpmath.pi * G
    columns = {"t": grid}
    decay = [mpmath.exp(-G * mpmath.mpf(t)) for t in grid]
    for n in range(r):
        curve = [float(fam0[n] * d) for d in decay]
        columns[f"w{n}_norm"] = curve
        columns[f"w{n}_exp_law"] = curve
    columns["wsum_norm"] = columns["wsum_exp_law"] = [float(wsum0 * d) for d in decay]
    for k in range(r):
        weights = [_ket_weight(norm, k, p) ** 2 for p in range(k + 1)]
        columns[f"dyad{k}_norm"] = [
            float(d * sum(w * mpmath.mpf(t) ** (2 * (k - p)) for p, w in enumerate(weights)))
            for t, d in zip(grid, decay)
        ]
    return columns


def check_decay(text: str, expected: dict) -> Verdict:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return _fail("empty table")
    header, body = rows[0], rows[1:]
    steps = len(expected["t"])
    if len(body) != steps or any(len(row) != len(header) for row in body):
        return _fail("table shape")
    missing = set(expected) - set(header)
    if missing:
        return _fail(f"missing columns {sorted(missing)}")
    worst = _Worst(DECAY_TOL)
    for col, name in enumerate(header):
        want = expected.get(name)
        if want is None:
            continue
        for i, row in enumerate(body):
            worst.compare(f"{name}[{i}]", float(row[col]), want[i])
    return worst.verdict()


# ------------------------------------------------------------ pole-term


def _series_mul(a, b, order):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(order)]


def _rational_series(terms, z, order):
    """Taylor coefficients at z of sum c / (w - i a)**m."""
    out = [mpmath.mpc(0)] * order
    for a, m, c in terms:
        base = z - 1j * mpmath.mpf(a)
        c = mpmath.mpc(c.real, c.imag)
        for k in range(order):
            out[k] += c * (-1) ** k * comb(m + k - 1, k) * base ** (-m - k)
    return out


def _exp_series(g, order):
    """Taylor coefficients of exp(g(w)) from those of g, by e' = g' e."""
    out = [mpmath.exp(g[0])]
    for k in range(1, order):
        out.append(sum(j * g[j] * out[k - j] for j in range(1, k + 1)) / k)
    return out


def _phase_series(gamma, z, order):
    """Taylor coefficients at z of exp(2i gamma(w)), gamma a real polynomial."""
    g = []
    for k in range(order):
        acc = mpmath.mpc(0)
        for i, coeff in enumerate(gamma):
            if i >= k:
                acc += mpmath.mpf(coeff) * comb(i, k) * z ** (i - k)
        g.append(2j * acc)
    return _exp_series(g, order)


def _leg_series(params: dict):
    """Taylor coefficients at the pole of the observable leg psi * exp(2i gamma)
    and of the state leg phi, up to order r - 1."""
    r = params["r"]
    z = mpmath.mpc(params["E_R"], -0.5 * params["Gamma"])
    psi = _series_mul(_rational_series(params["psi"], z, r), _phase_series(params["gamma"], z, r), r)
    phi = _rational_series(params["phi"], z, r)
    return z, psi, phi


def _pole_sum(r, G, psi_d, phi_d):
    total = mpmath.mpc(0)
    for n in range(r):
        inner = sum(comb(n, k) * psi_d[k] * phi_d[n - k] for k in range(n + 1))
        total += comb(r, n + 1) * (-1j * G) ** (n + 1) * (-2j * mpmath.pi / factorial(n)) * inner
    return total


def _derivatives(series):
    return [c * factorial(k) for k, c in enumerate(series)]


def pole_expectation(params: dict) -> dict:
    """pole_term, expansion_coeffs, probability_at_zero and the ratio table
    from exact Taylor series of both legs, evaluated in mpmath."""
    r = params["r"]
    G = mpmath.mpf(params["Gamma"])
    z, psi, phi = _leg_series(params)
    psi_d, phi_d = _derivatives(psi), _derivatives(phi)
    coeffs = []
    for k in range(r):
        acc = sum(
            comb(r, n + 1) * comb(n, k) * (-1j * G) ** n / factorial(n) * phi_d[n - k]
            for n in range(k, r)
        )
        coeffs.append(complex(-2 * mpmath.pi * G * acc))
    grid = _linspace(params["t_max"], params["t_steps"])
    probs = []
    for t in grid:
        t = mpmath.mpf(t)
        shift = [mpmath.exp(-1j * z * t) * (-1j * t) ** k / factorial(k) for k in range(r)]
        psi_t = _derivatives(_series_mul(psi, shift, r))
        probs.append(abs(_pole_sum(r, G, psi_t, phi_d)) ** 2)
    return {
        "pole_term": complex(_pole_sum(r, G, psi_d, phi_d)),
        "expansion_coeffs": coeffs,
        "probability_at_zero": float(probs[0]),
        "t": grid,
        "ratio": [float(p / probs[0]) for p in probs],
        "exponential_reference": [float(mpmath.exp(-G * mpmath.mpf(t))) for t in grid],
        "psi_derivatives": [complex(d) for d in psi_d],
        "phi_derivatives": [complex(d) for d in phi_d],
    }


def check_pole(text: str, expected: dict) -> Verdict:
    try:
        payload = json.loads(text)
        worst = _Worst(POLE_TOL)
        pt = payload["pole_term"]
        worst.compare("pole_term", complex(pt["re"], pt["im"]), expected["pole_term"])
        coeffs = payload["expansion_coeffs"]
        if len(coeffs) != len(expected["expansion_coeffs"]):
            return _fail("expansion_coeffs length")
        for k, (got, want) in enumerate(zip(coeffs, expected["expansion_coeffs"])):
            worst.compare(f"expansion_coeffs[{k}]", complex(got["re"], got["im"]), want)
        worst.compare("probability_at_zero", payload["probability_at_zero"],
                      expected["probability_at_zero"])
        table = payload["ratio_table"]
        if len(table) != len(expected["t"]):
            return _fail("ratio_table length")
        for i, entry in enumerate(table):
            if entry["t"] != expected["t"][i]:
                return _fail(f"ratio_table[{i}].t")
            worst.compare(f"ratio[{i}]", entry["ratio"], expected["ratio"][i])
            worst.compare(f"exponential_reference[{i}]", entry["exponential_reference"],
                          expected["exponential_reference"][i])
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"malformed payload: {exc!r}")
    return worst.verdict()


# ------------------------------------------------------------ uniqueness


def uniqueness_expectation(j: int) -> dict:
    """Closed forms of the certification report at square size j.

    Rows are the triples (l, m, n) with l + m = s < n <= 2j, so there are
    sum_s (s + 1)(2j - s) = binom(2j + 2, 3) of them.  The nullspace is the
    j + 1 binomial anti-diagonals, so the rank is (j + 1)**2 - (j + 1).
    """
    size = j + 1
    basis = [
        [[str(comb(n, k)) if h + k == n else "0" for k in range(size)] for h in range(size)]
        for n in range(size)
    ]
    flags = [True] * size
    return {
        "j": j,
        "embedding_order": 2 * j,
        "unknown_count": size * size,
        "constraint_rows": comb(2 * j + 2, 3),
        "rank": size * size - size,
        "nullspace_dimension": size,
        "expected_dimension": size,
        "basis": basis,
        "basis_constraint_ok": flags,
        "basis_time_constant": flags,
        "high_anti_diagonals_zero": flags,
        "span_check_ok": True,
        "certified": True,
        "failures": [],
    }


def check_uniqueness(text: str, expected: dict, golden: str | None = None) -> Verdict:
    if golden is not None and text != golden:
        return _fail("differs from the golden report")
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return _fail(f"malformed report: {exc!r}")
    if payload != expected:
        bad = sorted(k for k in expected if payload.get(k) != expected[k])
        return _fail(f"report fields {bad or sorted(payload)} differ from closed forms")
    return Verdict(True, DIGITS_CAP)
