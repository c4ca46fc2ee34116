"""Accuracy of decay-curve and pole-term over the whole input range the CLI accepts.

Every printed number is checked against an mpmath oracle: closed forms
for the decay tables, exact Taylor series at the pole for the pole terms
(test_cli._pole_fields).  A value is right when it lies within TOLERANCE
relative of the oracle, plus 2**-1074 absolute, which covers the
subnormal range.  Exit 2 is accepted only where the oracle puts some
printed value outside the float range; tests/test_cli_property.py holds
the failure contract itself.  Pole order, E_R, Gamma and the time grid
come from the whole range; the legs of the pole-term pairing are fixed.
"""

import csv
import io
import json
import sys
from math import comb, factorial

import mpmath
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamowkit.cli import R_CAP, RunConfig, main, parse_config_text
from test_cli import _pole_fields

# the bound the README states for decay-curve and pole-term
TOLERANCE = 1e-14
FLOAT_MAX = sys.float_info.max

moderate = st.floats(min_value=1e-3, max_value=1e3)
positive = moderate | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
nonnegative = moderate | st.floats(min_value=0.0, allow_infinity=False)
times = st.lists(nonnegative, min_size=2, max_size=2).map(sorted)


def _run(args, config: str):
    """Exit code, stdout and stderr of one in-process CLI run on config."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("c.conf", "w") as fh:
            fh.write(config)
        result = runner.invoke(main, args + ["--config", "c.conf"])
    return result.exit_code, result.stdout, result.stderr


def _close(got: float, want) -> bool:
    return abs(got - want) <= TOLERANCE * abs(want) + 2.0**-1074


def _decay_oracle(Gamma: float, r: int, normalization: str, scaled: bool, t: float) -> dict:
    """Every column of one decay-curve row: W(n) has norm Gamma**n/n!
    sqrt(binom(2n, n)) (Gamma**n sqrt(n+1) in the factorial normalization),
    the weighted sum adds disjoint anti-diagonals, times 2 pi Gamma unless
    exact, and the dyad |k><k| has unphased norm s_k(t) = sum_j w_j**2
    t**(2j), w_j = binom(k, j) or 1/j!, so its deviation is s_k - 1."""
    G, t = mpmath.mpf(Gamma), mpmath.mpf(t)
    decay = mpmath.exp(-G * t)
    if normalization == "derivative":
        family = [G**n / factorial(n) * mpmath.sqrt(comb(2 * n, n)) for n in range(r)]
    else:
        family = [G**n * mpmath.sqrt(n + 1) for n in range(r)]
    total = mpmath.sqrt(sum(comb(r, n + 1) ** 2 * family[n] ** 2 for n in range(r)))
    family.append(total * (2 * mpmath.pi * G if scaled else 1))
    values = {}
    for name, norm0 in zip([f"w{n}" for n in range(r)] + ["wsum"], family):
        values.update({f"{name}_norm": norm0 * decay, f"{name}_exp_law": norm0 * decay,
                       f"{name}_deviation": mpmath.mpf(0)})
    for k in range(r):
        if normalization == "derivative":
            weights = [comb(k, j) ** 2 for j in range(k + 1)]
        else:
            weights = [mpmath.mpf(1) / factorial(j) ** 2 for j in range(k + 1)]
        tail = sum(w * t ** (2 * j) for j, w in enumerate(weights) if j)
        values.update({f"dyad{k}_norm": decay * (1 + tail), f"dyad{k}_deviation": tail})
    return values


def _decay_problems(args, config: str) -> list:
    cfg = RunConfig(parse_config_text(config))
    grid = cfg.grid("t", minimum_allowed=0.0)
    code, out, err = _run(args, config)
    normalization = "factorial" if "factorial" in args else "derivative"
    with mpmath.workprec(200):
        rows = [_decay_oracle(cfg.get_float("Gamma"), cfg.get_int("r", R_CAP), normalization,
                              "--exact" not in args, t) for t in grid]
        outside = any(v > FLOAT_MAX for row in rows for v in row.values())
    if code == 2:
        return [] if outside else [f"exit 2 with every value in range: {err}"]
    assert code == 0, err
    header, *table = list(csv.reader(io.StringIO(out)))
    problems = []
    for want, row in zip(rows, table):
        for name, field in zip(header[1:], row[1:]):
            with mpmath.workprec(200):
                if not _close(float(field), want[name]):
                    problems.append(f"{name} at t = {row[0]}: {field}, want {want[name]}")
    return problems


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    Gamma=positive,
    r=st.integers(min_value=1, max_value=R_CAP),
    ends=times,
    steps=st.integers(min_value=1, max_value=3),
    flags=st.sampled_from([[], ["--exact"], ["--normalization", "factorial"],
                           ["--exact", "--normalization", "factorial"]]),
)
# N(t) alone leaves the float range, the printed norm is 3.2e152
@example(Gamma=0.0011986299841722909, r=24, ends=[0.0, 8342.85820649269], steps=7,
         flags=["--exact"])
# exp(-Gamma t) alone underflows, the dyad7 norm is 1.6e-307
@example(Gamma=1.0, r=8, ends=[800.0, 800.0], steps=1, flags=[])
# the dyad2 deviation is 1e320; every norm is 0
@example(Gamma=1.0, r=3, ends=[0.0, 1e80], steps=2, flags=[])
def test_decay_curve_within_the_stated_tolerance(Gamma, r, ends, steps, flags):
    config = (f"E_R = 2.0\nGamma = {Gamma!r}\nr = {r}\n"
              f"t_min = {ends[0]!r}\nt_max = {ends[1]!r}\nt_steps = {steps}\n")
    assert _decay_problems(["decay-curve", *flags], config) == []


# the legs of configs/pole_term_r2.conf
PAIR = "psi = 1.0 1 1.0 0.0\nphi = 1.5 1 1.0 0.0\n"


def _pole_parts(config: str, payload: dict) -> list:
    """(name, printed part, oracle part) for every real and imaginary part
    of a pole-term payload.  A part can be smaller than the modulus of its
    value by any factor, so the oracle's precision doubles until two
    successive passes agree on every part to 1e-20, or below the float
    range."""
    previous, dps = None, 40
    while dps <= 5120:
        with mpmath.workdps(dps):
            parts = [
                (name, g, w)
                for name, got, want in _pole_fields(config, payload, dps)
                for g, w in zip((complex(got).real, complex(got).imag),
                                (mpmath.mpc(want).real, mpmath.mpc(want).imag))
            ]
            if previous is not None and all(
                abs(w - v) <= 1e-20 * abs(w) or max(abs(w), abs(v)) < 2.0**-1100
                for (_, _, w), (_, _, v) in zip(parts, previous)
            ):
                return parts
        previous, dps = parts, 2 * dps
    raise AssertionError(f"the oracle does not settle on\n{config}")


# r up to the cap with E_R and Gamma of moderate size, and with both from
# the whole range
poles = st.tuples(st.integers(min_value=1, max_value=R_CAP), moderate, moderate) | st.tuples(
    st.integers(min_value=1, max_value=R_CAP), positive, positive
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(pole=poles, ends=times, steps=st.integers(min_value=1, max_value=3))
# exp(-Gamma t) alone underflows, the ratio is 2.0e-298; the reference
# is 8.6e-331, below the subnormal range
@example(pole=(8, 2.0, 1.0), ends=[0.0, 760.0], steps=2)
def test_pole_term_within_the_stated_tolerance(pole, ends, steps):
    r, E_R, Gamma = pole
    config = (f"E_R = {E_R!r}\nGamma = {Gamma!r}\nr = {r}\n{PAIR}"
              f"t_min = {ends[0]!r}\nt_max = {ends[1]!r}\nt_steps = {steps}\n")
    code, out, err = _run(["pole-term"], config)
    if code == 0:
        payload = json.loads(out)
    else:
        # the oracle alone, on a payload of zeros
        grid = RunConfig(parse_config_text(config)).grid("t", minimum_allowed=0.0)
        zero = {"re": 0.0, "im": 0.0}
        payload = {"pole_term": zero, "expansion_coeffs": [zero] * r, "probability_at_zero": 0.0,
                   "ratio_table": [{"t": t, "ratio": 0.0, "exponential_reference": 0.0}
                                   for t in grid]}
    parts = _pole_parts(config, payload)
    with mpmath.workprec(200):
        outside = any(abs(w) > FLOAT_MAX for _, _, w in parts)
        # the probability is the squared modulus of the rounded pole term,
        # so within two subnormal steps of 0 it may read 0, which exits 2
        p0 = next(w for name, _, w in parts if name == "probability_at_zero")
        outside = outside or p0 < 2.0**-1073
        if code == 2:
            assert outside, err
            return
        assert code == 0, err
        problems = [f"{name}: {g!r}, want {w}" for name, g, w in parts if not _close(g, w)]
    assert problems == []
