"""Seeded workload definitions: the CLI commands each workload runs.

A workload is a fixed list of CLI commands whose configs are generated
from the seed.  The seed moves the physical parameters (pole position,
width, test functions, phase coefficients) and the command order; it
never moves the amount of work, so run times and layer counts compare
across seeds.  Time grids and phase steepness are given in units of the
width, which keeps the contour node counts independent of the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb

# decay-float: orders up to 16, both normalizations.  Orders >= 12 stay
# in on purpose: their float deviation exceeds 1e-12.
FLOAT_ORDERS = (1, 2, 4, 8, 12, 16)
FLOAT_STEPS = 101
# decay-exact: the exact carrier up to order 10, one normalization per order.
EXACT_ORDERS = (1, 2, 4, 6, 8, 10)
EXACT_STEPS = 21
# The float defect grows like t**(2r); a fixed horizon keeps its size
# comparable across seeds while E_R and Gamma move.
DECAY_T_MAX = 6.0

# certify-ladder: j = 0..LADDER_TOP per pass; j = LADDER_PROBE once in
# the traced run, for the layer counts at the CLI cap.  Commands that take
# under a second leave room for enough passes that each command's median
# is steady on a shared host.
LADDER_TOP = 8
LADDER_PROBE = 12

# pole-survival: orders 1..8, each with every background-phase class.
POLE_ORDERS = tuple(range(1, 9))
POLE_STEPS = 41
POLE_GAMMA_T_MAX = 10.0
# Phase classes as Taylor coefficients of gamma(w) in u = (w - E_R) / Gamma,
# so the integrand on the contour |w - z| = Gamma / 4 does not depend on
# E_R or Gamma.  Every class stays within the accuracy the pole term is
# held to; steeper phases need more contour nodes but their pole terms
# lose all digits at the fixed radius Gamma / 4.
PHASE_CLASSES = {
    "flat": (0.3,),
    "linear": (0.3, 2.0),
    "quadratic": (0.3, 1.0, 4.0),
    "cubic": (0.3, 1.0, 2.0, 12.0),
}


@dataclass
class Command:
    """One CLI invocation: its arguments (config path appended later),
    the config text, and the parameters the oracle needs."""

    name: str
    args: list
    config: str
    params: dict = field(default_factory=dict)
    # True when the program documents the accuracy this command is held to;
    # a failure outside that range is counted but marks no contract breach.
    guaranteed: bool = True


@dataclass
class Workload:
    name: str
    commands: list
    largest: str
    probes: list = field(default_factory=list)


def _fmt(x: float) -> str:
    return repr(float(x))


def _pole_lines(E_R: float, Gamma: float, r: int) -> str:
    return f"E_R = {_fmt(E_R)}\nGamma = {_fmt(Gamma)}\nr = {r}\n"


def _decay_command(rng, r: int, norm: str, exact: bool, steps: int) -> Command:
    E_R = rng.uniform(1.0, 5.0)
    Gamma = rng.uniform(0.8, 1.25)
    config = (
        _pole_lines(E_R, Gamma, r)
        + f"normalization = {norm}\n"
        + f"t_min = 0.0\nt_max = {_fmt(DECAY_T_MAX)}\nt_steps = {steps}\n"
    )
    args = ["decay-curve"] + (["--exact"] if exact else [])
    tag = "exact" if exact else "float"
    params = {"E_R": E_R, "Gamma": Gamma, "r": r, "normalization": norm, "exact": exact,
              "t_max": DECAY_T_MAX, "t_steps": steps}
    # criterion 1 of the acceptance suite holds the float path to 1e-12 for r <= 8
    return Command(f"decay-{tag}-r{r}-{norm}", args, config, params, exact or r <= 8)


def decay_float(seed: int) -> Workload:
    rng = random.Random(seed)
    commands = [
        _decay_command(rng, r, norm, False, FLOAT_STEPS)
        for r in FLOAT_ORDERS
        for norm in ("derivative", "factorial")
    ]
    rng.shuffle(commands)
    return Workload("decay-float", commands, f"decay-float-r{FLOAT_ORDERS[-1]}-derivative")


def decay_exact(seed: int) -> Workload:
    rng = random.Random(seed)
    commands = [
        _decay_command(rng, r, ("derivative", "factorial")[r % 2], True, EXACT_STEPS)
        for r in EXACT_ORDERS
    ]
    rng.shuffle(commands)
    top = EXACT_ORDERS[-1]
    return Workload("decay-exact", commands, f"decay-exact-r{top}-{('derivative', 'factorial')[top % 2]}")


def _uniqueness_command(j: int) -> Command:
    return Command(f"uniqueness-j{j}", ["uniqueness"], f"j = {j}\n", {"j": j})


def certify_ladder(seed: int) -> Workload:
    commands = [_uniqueness_command(j) for j in range(LADDER_TOP + 1)]
    random.Random(seed).shuffle(commands)
    return Workload("certify-ladder", commands, f"uniqueness-j{LADDER_TOP}",
                    probes=[_uniqueness_command(LADDER_PROBE)])


def _rational_terms(rng, count: int):
    terms = []
    for _ in range(count):
        a = rng.uniform(0.5, 2.0)
        m = rng.randint(1, 3)
        c = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        terms.append((a, m, c))
    return terms


def _phase_coefficients(taylor, E_R: float, Gamma: float):
    """Monomial coefficients of sum_k taylor[k] * ((w - E_R) / Gamma)**k."""
    coeffs = [0.0] * len(taylor)
    for k, s in enumerate(taylor):
        scale = s / Gamma**k
        for i in range(k + 1):
            coeffs[i] += scale * comb(k, i) * (-E_R) ** (k - i)
    return coeffs


def _pole_command(rng, r: int, phase: str) -> Command:
    E_R = rng.uniform(1.5, 4.0)
    Gamma = rng.uniform(0.5, 1.0)
    # a small seeded jitter keeps every phase class inside its node level
    taylor = [s * rng.uniform(0.97, 1.03) for s in PHASE_CLASSES[phase]]
    gamma = _phase_coefficients(taylor, E_R, Gamma)
    psi = _rational_terms(rng, 2)
    phi = _rational_terms(rng, 1)
    lines = [_pole_lines(E_R, Gamma, r), "absorb_gauge = true\n"]
    lines += [f"gamma = {_fmt(g)}\n" for g in gamma]
    for key, terms in (("psi", psi), ("phi", phi)):
        lines += [f"{key} = {_fmt(a)} {m} {_fmt(c.real)} {_fmt(c.imag)}\n" for a, m, c in terms]
    t_max = POLE_GAMMA_T_MAX / Gamma
    lines.append(f"t_min = 0.0\nt_max = {_fmt(t_max)}\nt_steps = {POLE_STEPS}\n")
    params = {"E_R": E_R, "Gamma": Gamma, "r": r, "gamma": gamma, "psi": psi, "phi": phi,
              "t_max": t_max, "t_steps": POLE_STEPS}
    return Command(f"pole-term-r{r}-{phase}", ["pole-term"], "".join(lines), params)


def pole_survival(seed: int) -> Workload:
    rng = random.Random(seed)
    commands = [_pole_command(rng, r, phase) for r in POLE_ORDERS for phase in PHASE_CLASSES]
    rng.shuffle(commands)
    return Workload("pole-survival", commands, f"pole-term-r{POLE_ORDERS[-1]}-cubic")


WORKLOADS = {
    "certify-ladder": certify_ladder,
    "decay-float": decay_float,
    "decay-exact": decay_exact,
    "pole-survival": pole_survival,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
