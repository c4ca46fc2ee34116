"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Each test gathers every check for its criterion into a problem list,
prints a single summary line (visible with pytest -s; the -v listing
carries the same verdict), and only then asserts, so a failure report
names everything that went wrong at once.
"""

import cmath
import json
import math
import time
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from gamowkit.cli import main as cli_main
from gamowkit.jordan import (
    GamowSubspace,
    conjugation_polys,
    evolution_matrix,
    hamiltonian_action_matrix,
    nilpotent_power,
)
from gamowkit.smatrix import (
    BackgroundPhase,
    ResonancePole,
    SMatrixModel,
    TestFunction,
    analytic_derivatives,
    pole_expansion_coeffs,
    pole_jet,
    s_matrix_eval,
)
from gamowkit.states import (
    StateOperator,
    decay_deviation,
    dyad_operator,
    w_n,
    w_total,
)
from gamowkit.uniqueness import certify

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = REPO / "tests" / "golden"

RNG_SEED = 20260823

PAIR = TestFunction(((1.0, 1, 1.0), (2.0, 2, 0.5j))), TestFunction(((1.5, 1, 1.0),))


def _verdict(number: int, problems: list, detail: str):
    status = "PASS" if not problems else "FAIL"
    print(f"CRITERION {number}: {status} ({detail})")
    assert not problems, f"criterion {number}: " + "; ".join(problems)


def _rational_derivatives(terms, z, n_max):
    out = np.zeros(n_max + 1, dtype=complex)
    for k in range(n_max + 1):
        acc = 0j
        for a, m, c in terms:
            rising = math.factorial(m + k - 1) // math.factorial(m - 1)
            acc += c * (-1) ** k * rising * (z - 1j * a) ** (-(m + k))
        out[k] = acc
    return out


def _contour_pole_term(psi, phi, model, nodes=4096):
    pole = model.pole
    z = pole.z_R
    rho = pole.Gamma / 3.0
    total = 0j
    for jn in range(nodes):
        theta = 2.0 * math.pi * jn / nodes
        w = z + rho * cmath.exp(1j * theta)
        s = s_matrix_eval(model, w)
        if not model.absorb_gauge:
            s /= model.phase_factor(w)
        total += psi.value(w) * s * phi.value(w) * 1j * rho * cmath.exp(1j * theta)
    return -total * (2.0 * math.pi / nodes)


def test_criterion_1_pure_exponential_decay_of_the_family():
    """Every W(n) and their weighted sum decay exponentially to 1e-12
    for r = 1..8, and their exact conjugation polynomials have exactly
    zero remainder."""
    start = time.perf_counter()
    problems = []
    grid = np.linspace(0.0, 10.0, 20)
    worst = 0.0
    for r in range(1, 9):
        for normalization in ("derivative", "factorial"):
            space = GamowSubspace(ResonancePole(2.0, 1.0, r), normalization)
            operators = [w_n(space, n) for n in range(r)] + [w_total(space)]
            for op in operators:
                den = op.denominator
                rounded = {kl: complex(re / den, im / den) for kl, (re, im) in op.entries.items()}
                worst = max(worst, decay_deviation(StateOperator.lift(space, rounded), grid))
        space = GamowSubspace(ResonancePole(2.0, 1.0, r), "derivative")
        for n in range(r):
            W = w_n(space, n)
            polys, den = conjugation_polys("derivative", W.entries, W.denominator)
            for i in range(r):
                for j in range(r):
                    # no power above 0, and power 0 over den is W's entry over its denominator
                    poly = polys.get((i, j), {})
                    x, y = poly.get(0, (0, 0))
                    re, im = W.entries.get((i, j), (0, 0))
                    same = x * W.denominator == re * den and y * W.denominator == im * den
                    if max(poly, default=0) > 0 or not same:
                        problems.append(f"r={r} n={n} entry ({i},{j}) has a remainder")
    if worst > 1e-12:
        problems.append(f"worst float deviation {worst:.3e} > 1e-12")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s >= 5s")
    _verdict(1, problems, f"worst deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_dyad_contamination():
    """A plain dyad |k><k| leaks a t**(2k) term with leading coefficient
    exactly 1 onto the ground dyad, and visibly breaks the decay law."""
    problems = []
    space = GamowSubspace(ResonancePole(2.0, 1.0, 4), "derivative")
    for k in (1, 2, 3):
        dyad = dyad_operator(space, k)
        polys, denominator = conjugation_polys("derivative", dyad.entries, dyad.denominator)
        corner = polys[0, 0]
        if max(corner) != 2 * k:
            problems.append(f"k={k}: corner degree {max(corner)} != {2 * k}")
        elif corner[2 * k] != (denominator, 0):
            problems.append(f"k={k}: leading coefficient is not exactly 1")
    deviation = decay_deviation(dyad_operator(space, 2), [5.0])
    if deviation <= 1e-3:
        problems.append(f"dyad deviation {deviation:.3e} <= 1e-3 at t = 5")
    _verdict(2, problems, f"leading coefficients exact, dyad deviation {deviation:.2e}")


def test_criterion_3_uniqueness_certified_exactly():
    """The exact solver certifies dimension j+1 with the binomial
    anti-diagonal basis for every j up to 8, within its time budget."""
    start = time.perf_counter()
    problems = []
    for j in range(9):
        report = certify(j)
        if not report["certified"]:
            problems.append(f"j={j}: {report['failures']}")
            continue
        if report["nullspace_dimension"] != j + 1:
            problems.append(f"j={j}: dimension {report['nullspace_dimension']}")
        for n in range(j + 1):
            rendered = report["basis"][n]
            for k in range(n + 1):
                if rendered[n - k][k] != str(math.comb(n, k)):
                    problems.append(f"j={j} basis {n}: entry ({n - k},{k}) wrong")
        if not all(report["basis_time_constant"]):
            problems.append(f"j={j}: oracle found time dependence")
        if not all(report["high_anti_diagonals_zero"]):
            problems.append(f"j={j}: high anti-diagonal entries survive")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.2f}s >= 10s")
    _verdict(3, problems, f"j <= 8 certified, {elapsed:.2f}s")


def test_criterion_4_jordan_block_structure():
    """(H - z)**r vanishes exactly, lower powers have rank r - k, the
    evolution is a semigroup to 1e-12 and has generator -iH to 1e-6."""
    problems = []
    rng = np.random.default_rng(RNG_SEED)
    for r in range(1, 9):
        space = GamowSubspace(ResonancePole(2.0, 1.0, r), "derivative")
        if any(map(any, nilpotent_power(space, r))):
            problems.append(f"r={r}: (H - z)**r is not exactly zero")
        for k in range(r + 1):
            s = np.linalg.svd(np.array(nilpotent_power(space, k)), compute_uv=False)
            rank = int(np.sum(s > 1e-9 * s[0])) if s[0] > 0 else 0
            if rank != r - k:
                problems.append(f"r={r} k={k}: rank {rank} != {r - k}")
    space = GamowSubspace(ResonancePole(2.0, 1.0, 8), "derivative")
    worst_semigroup = 0.0
    for _ in range(50):
        t1, t2 = rng.uniform(0.0, 2.5, size=2)
        lhs = np.array(evolution_matrix(space, t1)) @ np.array(evolution_matrix(space, t2))
        rhs = np.array(evolution_matrix(space, t1 + t2))
        err = float(np.max(np.abs(lhs - rhs))) / max(1.0, float(np.max(np.abs(rhs))))
        worst_semigroup = max(worst_semigroup, err)
    if worst_semigroup > 1e-12:
        problems.append(f"semigroup error {worst_semigroup:.3e} > 1e-12")
    worst_generator = 0.0
    for r in range(1, 9):
        space = GamowSubspace(ResonancePole(2.0, 1.0, r), "derivative")
        h, d = 0.5, 1e-6
        quotient = (
            np.array(evolution_matrix(space, h + d)) - np.array(evolution_matrix(space, h - d))
        ) / (2.0 * d)
        h_action = np.array(hamiltonian_action_matrix(space))
        target = -1j * h_action @ np.array(evolution_matrix(space, h))
        worst_generator = max(worst_generator, float(np.max(np.abs(quotient - target))))
    if worst_generator > 1e-6:
        problems.append(f"generator error {worst_generator:.3e} > 1e-6")
    _verdict(
        4,
        problems,
        f"semigroup {worst_semigroup:.2e}, generator {worst_generator:.2e}",
    )


def test_criterion_5_derivative_extraction_and_pole_term():
    """Contour derivatives match closed forms to 1e-10 through order 6;
    the pole term matches an independent contour integral to 1e-9."""
    problems = []
    terms = ((1.0, 1, 1.0), (2.0, 3, 0.5 - 0.25j))
    z0 = complex(2.0, -0.5)
    got = analytic_derivatives(TestFunction(terms).value, z0, 6, 0.6)
    want = _rational_derivatives(terms, z0, 6)
    worst_derivative = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-12)))
    if worst_derivative > 1e-10:
        problems.append(f"derivative error {worst_derivative:.3e} > 1e-10")
    worst_pole = 0.0
    for r in range(1, 5):
        for absorb in (True, False):
            model = SMatrixModel(
                ResonancePole(2.0, 1.0, r),
                BackgroundPhase("polynomial", (0.1, 0.02)),
                absorb_gauge=absorb,
            )
            value = pole_jet(*PAIR, model).amplitude()
            oracle = _contour_pole_term(*PAIR, model)
            err = abs(value - oracle) / max(1.0, abs(oracle))
            worst_pole = max(worst_pole, err)
    if worst_pole > 1e-9:
        problems.append(f"pole term error {worst_pole:.3e} > 1e-9")
    _verdict(5, problems, f"derivatives {worst_derivative:.2e}, pole term {worst_pole:.2e}")


def test_criterion_6_survival_ratio_and_width_recovery():
    """For a simple pole the decay ratio is exp(-Gamma t) to 1e-9, and a
    log-linear fit of the CLI decay curve recovers Gamma to 1e-6."""
    problems = []
    model = SMatrixModel(ResonancePole(2.0, 1.0, 1))
    jet = pole_jet(*PAIR, model)
    p0 = jet.probability(0.0)
    worst_ratio = 0.0
    for t in np.linspace(0.0, 10.0, 11):
        ratio = jet.probability(float(t)) / p0
        worst_ratio = max(worst_ratio, abs(ratio - math.exp(-float(t))) / math.exp(-float(t)))
    if worst_ratio > 1e-9:
        problems.append(f"survival ratio error {worst_ratio:.3e} > 1e-9")
    runner = CliRunner()
    result = runner.invoke(
        cli_main,
        ["decay-curve", "--config", str(CONFIGS / "decay_r1.conf"), "--format", "json"],
    )
    if result.exit_code != 0:
        problems.append(f"decay-curve exited {result.exit_code}")
        fit_error = float("nan")
    else:
        payload = json.loads(result.output)
        t_idx = payload["columns"].index("t")
        n_idx = payload["columns"].index("w0_norm")
        times = np.array([row[t_idx] for row in payload["rows"]])
        norms = np.array([row[n_idx] for row in payload["rows"]])
        slope = np.polyfit(times, np.log(norms), 1)[0]
        fit_error = abs(-slope - 1.0)
        if fit_error > 1e-6:
            problems.append(f"fitted width off by {fit_error:.3e} > 1e-6")
    _verdict(6, problems, f"ratio {worst_ratio:.2e}, width error {fit_error:.2e}")


def test_criterion_7_s_matrix_identities():
    """S is unitary on the real axis to 1e-12 and equals its partial
    fraction expansion to 1e-11 away from the pole pair."""
    problems = []
    rng = np.random.default_rng(RNG_SEED)
    model = SMatrixModel(
        ResonancePole(2.0, 0.7, 3), BackgroundPhase("polynomial", (0.1, 0.05))
    )
    worst_unitarity = 0.0
    for energy in rng.uniform(0.1, 10.0, size=200):
        worst_unitarity = max(
            worst_unitarity, abs(abs(s_matrix_eval(model, float(energy))) - 1.0)
        )
    if worst_unitarity > 1e-12:
        problems.append(f"unitarity defect {worst_unitarity:.3e} > 1e-12")
    pole = ResonancePole(2.0, 1.0, 4)
    bare = SMatrixModel(pole)
    coeffs = pole_expansion_coeffs(pole)
    z = pole.z_R
    worst_expansion = 0.0
    checked = 0
    while checked < 200:
        w = complex(rng.uniform(-5, 9), rng.uniform(-5, 5))
        if abs(w - z) < 0.1 * pole.Gamma or abs(w - z.conjugate()) < 0.1 * pole.Gamma:
            continue
        closed = s_matrix_eval(bare, w)
        summed = 1.0 + sum(c / (w - z) ** (l + 1) for l, c in enumerate(coeffs))
        worst_expansion = max(
            worst_expansion, abs(closed - summed) / max(1.0, abs(closed))
        )
        checked += 1
    if worst_expansion > 1e-11:
        problems.append(f"expansion mismatch {worst_expansion:.3e} > 1e-11")
    _verdict(
        7, problems, f"unitarity {worst_unitarity:.2e}, expansion {worst_expansion:.2e}"
    )


def test_criterion_8_deterministic_cli_output(tmp_path):
    """Every shipped config produces byte-identical output across runs
    and reproduces its golden file."""
    problems = []
    runner = CliRunner()
    cases = [
        ("decay-curve", "decay_r1.conf", "decay_r1.csv"),
        ("decay-curve", "decay_r3.conf", "decay_r3.csv"),
        ("lineshape", "lineshape_r3.conf", "lineshape_r3.csv"),
        ("pole-term", "pole_term_r1.conf", "pole_term_r1.json"),
        ("pole-term", "pole_term_r2.conf", "pole_term_r2.json"),
        ("uniqueness", "uniqueness_j4.conf", "uniqueness_j4.json"),
        ("jordan-info", "decay_r3.conf", "jordan_info_r3.json"),
    ]
    for command, config, golden in cases:
        outputs = []
        for run in range(2):
            out = tmp_path / f"{run}_{golden}"
            result = runner.invoke(
                cli_main,
                [command, "--config", str(CONFIGS / config), "--out", str(out)],
            )
            if result.exit_code != 0:
                problems.append(f"{command} {config} exited {result.exit_code}")
                break
            outputs.append(out.read_bytes())
        else:
            if outputs[0] != outputs[1]:
                problems.append(f"{command} {config}: runs differ")
            if outputs[0] != (GOLDEN / golden).read_bytes():
                problems.append(f"{command} {config}: golden file mismatch")
    _verdict(8, problems, f"{len(cases)} configs byte-stable against golden files")
