"""Command line interface.

Configs are flat ``key = value`` text files; '#' starts a comment and a
key may repeat to build a list (background phase coefficients, test
function terms).  Output is deterministic: floats are printed with 17
significant digits, CSV uses '.' as the decimal mark and ',' as the
separator, JSON is sorted and indented, so identical configs produce
byte-identical files.

Exit codes: 0 success, 1 validation or I/O error, 2 overflow or
underflow, 3 certification failure.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass

import click
import numpy as np

from .errors import ConfigInvalidError, JTooLargeError, UnderflowError
from .jordan import (
    GamowSubspace,
    evolution_matrix,
    hamiltonian_action_matrix,
    hamiltonian_matrix,
    nilpotent_power,
)
from .smatrix import (
    _exp_decay,
    BackgroundPhase,
    ResonancePole,
    SMatrixModel,
    TestFunctionPair,
    expansion_coeffs,
    lineshape,
    pole_jet,
)
from .states import (
    _w_prefactor,
    dyad_operator,
    evolved_norm_squared,
    w_n,
    w_total,
)
from .uniqueness import certify

# Largest certification order the CLI accepts: j = 32 certifies in about
# 1 s, the cost grows fast beyond it, and the statement is order-uniform.
J_CAP = 32


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _cplx(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _finite(text: str) -> float:
    """float(text), rejecting inf and nan with ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# ---------------------------------------------------------------- config


def parse_config_text(text: str) -> dict:
    """Flat key = value lines; repeated keys accumulate in order."""
    data: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalidError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigInvalidError(f"line {lineno}: empty key or value")
        data.setdefault(key, []).append(value)
    return data


@dataclass
class RunConfig:
    """Parsed and validated configuration for one CLI run."""

    raw: dict

    def _single(self, key: str, default=None):
        values = self.raw.get(key)
        if not values:
            if default is None:
                raise ConfigInvalidError(f"missing required key {key!r}")
            return default
        if len(values) > 1:
            raise ConfigInvalidError(f"key {key!r} given more than once")
        return values[0]

    def get_float(self, key: str, default=None) -> float:
        value = self._single(key, default)
        try:
            return _finite(value)
        except (TypeError, ValueError):
            raise ConfigInvalidError(f"key {key!r}: expected a finite number, got {value!r}")

    def get_int(self, key: str, default=None) -> int:
        value = self._single(key, default)
        try:
            return int(str(value))
        except (TypeError, ValueError):
            raise ConfigInvalidError(f"key {key!r}: expected an integer, got {value!r}")

    def get_choice(self, key: str, choices, default=None) -> str:
        value = str(self._single(key, default))
        if value not in choices:
            raise ConfigInvalidError(f"key {key!r}: expected one of {choices}, got {value!r}")
        return value

    def pole(self) -> ResonancePole:
        try:
            return ResonancePole(
                self.get_float("E_R"), self.get_float("Gamma"), self.get_int("r")
            )
        except ValueError as exc:
            raise ConfigInvalidError(str(exc))

    def phase(self) -> BackgroundPhase:
        values = self.raw.get("gamma", [])
        try:
            coeffs = tuple(_finite(v) for v in values)
        except ValueError:
            raise ConfigInvalidError("key 'gamma': expected finite numbers")
        if not coeffs:
            return BackgroundPhase()
        kind = "constant" if len(coeffs) == 1 else "polynomial"
        return BackgroundPhase(kind, coeffs)

    def model(self) -> SMatrixModel:
        flag = self.get_choice("absorb_gauge", ("true", "false"), "true")
        return SMatrixModel(self.pole(), self.phase(), absorb_gauge=flag == "true")

    def test_function_terms(self, key: str):
        out = []
        for chunk in self.raw.get(key, []):
            parts = chunk.split()
            if len(parts) != 4:
                raise ConfigInvalidError(
                    f"key {key!r}: expected 'a m c_re c_im', got {chunk!r}"
                )
            try:
                a, c_re, c_im = _finite(parts[0]), _finite(parts[2]), _finite(parts[3])
                m = int(parts[1])
            except ValueError:
                raise ConfigInvalidError(f"key {key!r}: malformed term {chunk!r}")
            out.append((a, m, complex(c_re, c_im)))
        if not out:
            raise ConfigInvalidError(f"missing required key {key!r}")
        return out

    def pair(self) -> TestFunctionPair:
        try:
            return TestFunctionPair.from_params(
                self.test_function_terms("psi"), self.test_function_terms("phi")
            )
        except ValueError as exc:
            raise ConfigInvalidError(str(exc))

    def grid(self, prefix: str, minimum_allowed: float | None = None):
        lo = self.get_float(f"{prefix}_min")
        hi = self.get_float(f"{prefix}_max")
        steps = self.get_int(f"{prefix}_steps")
        if steps < 1:
            raise ConfigInvalidError(f"{prefix}_steps must be >= 1, got {steps}")
        if hi < lo:
            raise ConfigInvalidError(f"{prefix}_max must be >= {prefix}_min")
        if minimum_allowed is not None and lo < minimum_allowed:
            raise ConfigInvalidError(f"{prefix}_min must be >= {minimum_allowed}")
        if steps == 1:
            return np.array([lo])
        return np.linspace(lo, hi, steps)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigInvalidError(f"cannot read config {path}: {exc}")
    return RunConfig(parse_config_text(text))


# ---------------------------------------------------------------- output


def _emit(out_path: str | None, text: str):
    if out_path is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigInvalidError(f"cannot write {out_path}: {exc}")


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        # inf and nan have no JSON spelling; they come from a float overflow
        raise OverflowError("a value of the output is not a finite float")


def _table_text(header, rows, fmt_name: str) -> str:
    if fmt_name == "csv":
        return _csv_text(header, rows)
    payload = {
        "columns": list(header),
        "rows": [[float(v) for v in row] for row in rows],
    }
    return _json_text(payload)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            click.echo(f"error: numerical overflow: {exc}", err=True)
            sys.exit(2)
        except UnderflowError as exc:
            click.echo(f"error: numerical underflow: {exc}", err=True)
            sys.exit(2)
        except (ConfigInvalidError, JTooLargeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


config_option = click.option(
    "--config", "config_path", required=True, type=click.Path(), help="Run configuration file."
)
out_option = click.option(
    "--out", "out_path", default=None, type=click.Path(), help="Output file (default stdout)."
)
format_option = click.option(
    "--format", "fmt_name", type=click.Choice(["csv", "json"]), default="csv", help="Table format."
)
normalization_option = click.option(
    "--normalization",
    type=click.Choice(["derivative", "factorial"]),
    default=None,
    help="Basis normalization (overrides the config).",
)


@click.group()
def main():
    """Resonance poles of arbitrary order: decay curves, lineshapes,
    pole terms, Jordan-block structure and exact uniqueness certificates."""


def _space_from(cfg: RunConfig, normalization: str | None) -> GamowSubspace:
    chosen = normalization or cfg.get_choice(
        "normalization", ("derivative", "factorial"), "derivative"
    )
    return GamowSubspace(cfg.pole(), chosen)


@main.command("decay-curve")
@config_option
@out_option
@format_option
@normalization_option
@click.option("--exact", is_flag=True, help="Leave the 2 pi Gamma scale off the wsum columns.")
@_guarded
def decay_curve_cmd(config_path, out_path, fmt_name, normalization, exact):
    """Norm of every evolved operator against the pure exponential law.

    Emits one row per time: for each operator family member its evolved
    Frobenius norm, the exponential reference, and the relative deviation
    of the two; plain dyads |k><k| ride along for contrast.
    """
    cfg = load_config(config_path)
    space = _space_from(cfg, normalization)
    grid = [float(t) for t in cfg.grid("t", minimum_allowed=0.0)]
    # exp(-Gamma t) once per grid point, shared by every column
    decay = [_exp_decay(space.pole.Gamma, t) for t in grid]
    r = space.dimension

    # every operator is exact; only the float table scales W's norms by 2 pi Gamma
    operators = [(f"w{n}", w_n(space, n, exact=True), 1.0) for n in range(r)]
    operators.append(("wsum", w_total(space, exact=True), 1.0 if exact else _w_prefactor(space)))
    dyads = [(f"dyad{k}", dyad_operator(space, k, exact=True)) for k in range(r)]

    def norm_columns(name, op, scale=1.0):
        # exact coefficients of the squared norm, evaluated by Horner in
        # Python floats: no BLAS kernel decides the rounding
        coeffs = [float(c) for c in reversed(evolved_norm_squared(op))]

        def unphased(t):
            acc = 0.0
            for c in coeffs:
                acc = acc * t + c
            norm = scale * math.sqrt(acc)
            if math.isinf(norm):
                raise OverflowError(f"norm leaves the float range at t = {t!r}")
            return norm

        norm0 = unphased(0.0)
        if norm0 == 0.0:
            raise UnderflowError(f"the {name} norm at t = 0 is 0 in floating point")
        norms = [unphased(t) for t in grid]
        # the deviation compares the unphased norms, so an exp(-Gamma t)
        # that underflows leaves it finite
        deviation = [abs(u - norm0) / norm0 for u in norms]
        return norm0, [u * e for u, e in zip(norms, decay)], deviation

    header = ["t"]
    columns = [grid]
    for name, op, scale in operators:
        norm0, curve, deviation = norm_columns(name, op, scale)
        header += [f"{name}_norm", f"{name}_exp_law", f"{name}_deviation"]
        columns += [curve, [norm0 * e for e in decay], deviation]
    for name, op in dyads:
        _, curve, deviation = norm_columns(name, op)
        header += [f"{name}_norm", f"{name}_deviation"]
        columns += [curve, deviation]

    rows = list(zip(*columns))
    _emit(out_path, _table_text(header, rows, fmt_name))


@main.command("lineshape")
@config_option
@out_option
@format_option
@_guarded
def lineshape_cmd(config_path, out_path, fmt_name):
    """Energy-domain intensity of each pole order, peak scaled to 1."""
    cfg = load_config(config_path)
    model = cfg.model()
    grid = cfg.grid("e")
    header = ["E"]
    columns = [list(map(float, grid))]
    for n in range(model.pole.r):
        header.append(f"intensity_n{n}")
        columns.append([float(v) for v in lineshape(model, n, grid)])
    rows = list(zip(*columns))
    _emit(out_path, _table_text(header, rows, fmt_name))


@main.command("pole-term")
@config_option
@out_option
@_guarded
def pole_term_cmd(config_path, out_path):
    """Pole term of the configured pairing plus its decay-ratio table.

    Everything is read off one exact polynomial Q built once (pole_jet):
    the pole term is 2 pi exp(2i gamma(z)) Q(0) and each ratio is
    exp(-Gamma t) |Q(t) / Q(0)|**2, with the quotient exact at the float t.
    """
    cfg = load_config(config_path)
    model = cfg.model()
    pair = cfg.pair()
    grid = cfg.grid("t", minimum_allowed=0.0)

    jet = pole_jet(pair, model)
    value = jet.amplitude()
    coeffs = expansion_coeffs(pair.phi, model)
    if jet.vanishes:
        raise ConfigInvalidError("pole term vanishes at t = 0; ratio table undefined")
    p0 = jet.probability(0.0)
    if p0 == 0.0:
        raise UnderflowError("probability at t = 0 is 0 in floating point; the pole term is not")
    table = []
    for t in grid:
        t = float(t)
        # one exp(-Gamma t) for both columns: at r = 1 they agree bit for bit
        reference = _exp_decay(model.pole.Gamma, t)
        table.append(
            {"t": t, "ratio": reference * jet.quotient(t), "exponential_reference": reference}
        )
    payload = {
        "pole_term": _cplx(value),
        "expansion_coeffs": [_cplx(b) for b in coeffs],
        "probability_at_zero": p0,
        "ratio_table": table,
    }
    _emit(out_path, _json_text(payload))


@main.command("uniqueness")
@config_option
@out_option
@_guarded
def uniqueness_cmd(config_path, out_path):
    """Exact certificate that only the binomial anti-diagonal family
    decays purely exponentially; exit code 3 if certification fails."""
    cfg = load_config(config_path)
    j = cfg.get_int("j")
    if j < 0:
        raise ConfigInvalidError(f"j must be nonnegative, got {j}")
    if j > J_CAP:
        raise JTooLargeError(f"j = {j} exceeds the certification cap {J_CAP}")
    report = certify(j)
    _emit(out_path, _json_text(report))
    if not report["certified"]:
        click.echo("certification FAILED", err=True)
        sys.exit(3)


@main.command("jordan-info")
@config_option
@out_option
@normalization_option
@_guarded
def jordan_info_cmd(config_path, out_path, normalization):
    """Jordan-block structure report: Hamiltonian layouts, nilpotent
    ranks, and the evolution matrix sampled at t = 1/Gamma."""
    cfg = load_config(config_path)
    space = _space_from(cfg, normalization)
    r = space.dimension
    sample_t = 1.0 / space.pole.Gamma

    def matrix_payload(mat):
        return [[_cplx(mat[i, j]) for j in range(mat.shape[1])] for i in range(mat.shape[0])]

    payload = {
        "r": r,
        "normalization": space.normalization,
        "pole": {"E_R": space.pole.E_R, "Gamma": space.pole.Gamma},
        "hamiltonian_pairing_layout": matrix_payload(hamiltonian_matrix(space).matrix),
        "hamiltonian_action_layout": matrix_payload(hamiltonian_action_matrix(space).matrix),
        "nilpotent_norms": [nilpotent_power(space, k).norm() for k in range(r + 1)],
        "evolution_sample_t": sample_t,
        "evolution_sample": matrix_payload(evolution_matrix(space, sample_t).matrix),
    }
    _emit(out_path, _json_text(payload))


if __name__ == "__main__":
    main()
