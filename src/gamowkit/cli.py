"""Command line interface.

Configs are flat ``key = value`` text files; '#' starts a comment and a
key may repeat to build a list (background phase coefficients, test
function terms).  Output is deterministic: floats are printed with 17
significant digits, CSV uses '.' as the decimal mark and ',' as the
separator, JSON is sorted and indented, so identical configs produce
byte-identical files.  Every JSON output is written by _json_text, whose
bytes are those of json.dumps(payload, indent=2, sort_keys=True,
allow_nan=False) plus a newline; with indent, json.dumps runs its
pure-Python encoder, so the writer formats each list of strings or of
float rows with one C-level join or %r template instead.  CSV tables
come as columns, each distinct column object formatted once.

Exit codes: 0 success or --help, 1 usage, validation or I/O error, 2
overflow or underflow, 3 certification failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from json.encoder import encode_basestring_ascii

from .errors import ConfigInvalidError, UnderflowError
from .jordan import (
    NORMALIZATIONS,
    GamowSubspace,
    evolution_matrix,
    hamiltonian_action_matrix,
    hamiltonian_matrix,
    nilpotent_norm,
)
from .smatrix import (
    BackgroundPhase,
    ResonancePole,
    SMatrixModel,
    TestFunction,
    lineshape,
    pole_jet,
)
from .states import decay_table
from .uniqueness import certify

# Largest inputs that set the amount of work: j = 32 certifies in 0.1 to
# 0.2 s; at r = 32 on 5000 points decay-curve takes 1.0 to 1.7 s and
# pole-term about 0.3 s (also with a cubic phase and three terms at
# m = 32, where the exact Q would run to 23000 bits: its balls of 320
# bits decide every value), on a 2-vCPU Xeon; the costs keep growing.
J_CAP = 32
R_CAP = 32
M_CAP = 32
STEPS_CAP = 5000


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


class RunConfig:
    """Parsed and validated configuration for one CLI run.  raw may be
    reassigned; there is no field-wise __eq__ (instances compare by
    identity), __hash__ or __repr__."""

    __slots__ = ("raw",)

    def __init__(self, raw: dict):
        self.raw = raw

    def _single(self, key: str, default=None):
        values = self.raw.get(key)
        if not values:
            if default is None:
                raise ConfigInvalidError(f"missing required key {key!r}")
            return default
        if len(values) > 1:
            raise ConfigInvalidError(f"key {key!r} given more than once")
        return values[0]

    def get_float(self, key: str) -> float:
        value = self._single(key)
        try:
            return _finite(value)
        except ValueError:
            raise ConfigInvalidError(f"key {key!r}: expected a finite number, got {value!r}")

    def get_int(self, key: str, cap: int) -> int:
        value = self._single(key)
        try:
            number = int(value)
        except ValueError:
            raise ConfigInvalidError(f"key {key!r}: expected an integer, got {value!r}")
        if number > cap:
            raise ConfigInvalidError(f"{key} = {number} exceeds the cap {cap}")
        return number

    def get_choice(self, key: str, choices, default: str) -> str:
        value = self._single(key, default)
        if value not in choices:
            raise ConfigInvalidError(f"key {key!r}: expected one of {choices}, got {value!r}")
        return value

    def pole(self) -> ResonancePole:
        return ResonancePole(
            self.get_float("E_R"), self.get_float("Gamma"), self.get_int("r", cap=R_CAP)
        )

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

    def test_function(self, key: str) -> TestFunction:
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
            if m > M_CAP:
                raise ConfigInvalidError(f"{key} pole order m = {m} exceeds the cap {M_CAP}")
            out.append((a, m, complex(c_re, c_im)))
        if not out:
            raise ConfigInvalidError(f"missing required key {key!r}")
        return TestFunction(tuple(out))

    def grid(self, prefix: str, minimum_allowed: float | None = None):
        lo = self.get_float(f"{prefix}_min")
        hi = self.get_float(f"{prefix}_max")
        steps = self.get_int(f"{prefix}_steps", cap=STEPS_CAP)
        if steps < 1:
            raise ConfigInvalidError(f"{prefix}_steps must be >= 1, got {steps}")
        if hi < lo:
            raise ConfigInvalidError(f"{prefix}_max must be >= {prefix}_min")
        if minimum_allowed is not None and lo < minimum_allowed:
            raise ConfigInvalidError(f"{prefix}_min must be >= {minimum_allowed}")
        if steps == 1:
            return [lo]
        grid = _linspace(lo, hi, steps)
        # hi - lo can leave the float range; the span of the halves cannot
        if all(map(math.isfinite, grid)):
            return grid
        return [2.0 * x for x in _linspace(lo / 2.0, hi / 2.0, steps)]


def _linspace(lo: float, hi: float, steps: int) -> list:
    """numpy.linspace(lo, hi, steps) for steps >= 2, in its own float
    operations: i * step + lo, or i / div * (hi - lo) + lo when the step
    is 0 (a subnormal span), with the last point hi."""
    div = steps - 1
    delta = hi - lo
    step = delta / div
    if step == 0:
        grid = [i / div * delta + lo for i in range(steps)]
    else:
        grid = [i * step + lo for i in range(steps)]
    grid[-1] = hi
    return grid


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigInvalidError(f"cannot read config {path}: {exc}")
    return RunConfig(parse_config_text(text))


# ---------------------------------------------------------------- output


def _emit(out_path: str | None, text: str):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigInvalidError(f"cannot write {out_path}: {exc}")


def _csv_text(header, columns) -> str:
    """The header and one line per row of the equal-length columns, each
    value as %.17g; a column object that appears twice is formatted once."""
    template = ",".join(["%.17g"] * len(columns[0]))
    cells = {}
    for column in columns:
        if id(column) not in cells:
            cells[id(column)] = (template % tuple(column)).split(",")
    lines = [",".join(header), *map(",".join, zip(*(cells[id(c)] for c in columns)))]
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
    byte for byte, but with lists of strings or float rows formatted in C."""
    try:
        return _json(payload, "\n") + "\n"
    except ValueError:
        # inf and nan have no JSON spelling; they come from a float overflow
        raise OverflowError("a value of the output is not a finite float")


def _json(value, newline: str) -> str:
    """value as json.dumps prints it (indent=2, sort_keys=True,
    allow_nan=False) at the depth whose line break and indent is newline;
    ValueError for an inf or a nan."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = (encode_basestring_ascii(k) + ": " + _json(v, inner)
                 for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + _json_items(value, inner) + newline + "]"
    return _json_leaf(value)


def _json_items(items, newline: str) -> str:
    """The items of a list, each on a line that starts with newline.  Two
    kinds of list skip the per-item recursion: all strings, one join of
    the encoder's own string writer; and dicts with the same keys and only
    float values (exactly that type: int and bool print otherwise), one %r
    template per row, all rows filled by one % call."""
    sep = "," + newline
    kinds = set(map(type, items))
    if kinds == {str}:
        return sep.join(map(encode_basestring_ascii, items))
    first = items[0]
    if kinds == {dict} and first and all(d.keys() == first.keys() for d in items):
        keys = sorted(first)
        values = [d[k] for d in items for k in keys]
        if set(map(type, values)) == {float}:
            if not all(map(math.isfinite, values)):
                raise ValueError("not a finite float")
            inner = newline + "  "
            fields = (encode_basestring_ascii(k).replace("%", "%%") + ": %r" for k in keys)
            row = "{" + inner + ("," + inner).join(fields) + newline + "}"
            return sep.join([row] * len(items)) % tuple(values)
    return sep.join(_json(item, newline) for item in items)


def _json_leaf(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("not a finite float")
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _table_text(header, columns, fmt_name: str) -> str:
    if fmt_name == "csv":
        return _csv_text(header, columns)
    rows = [list(map(float, row)) for row in zip(*columns)]
    return _json_text({"columns": list(header), "rows": rows})


# every option of every command; a command names the ones it takes
_OPTIONS = {
    "--config": dict(dest="config_path", required=True, help="Run configuration file."),
    "--out": dict(dest="out_path", help="Output file (default stdout)."),
    "--format": dict(dest="fmt_name", choices=["csv", "json"], default="csv", help="Table format."),
    "--normalization": dict(choices=NORMALIZATIONS, help="Basis normalization (overrides config)."),
    "--exact": dict(action="store_true", help="Leave the 2 pi Gamma scale off the wsum columns."),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are invalid input."""

    def error(self, message):
        raise ConfigInvalidError(message)


class _Main(_Parser):
    """Resonance poles of arbitrary order: decay curves, lineshapes,
    pole terms, Jordan-block structure and exact uniqueness certificates."""

    name = "gamowkit"

    def __init__(self, table: dict):
        super().__init__(prog=self.name, description=self.__doc__, allow_abbrev=False)
        parsers = self.add_subparsers(dest="command", metavar="<command>", parser_class=_Parser)
        for name, (callback, *options) in table.items():
            doc = callback.__doc__
            parser = parsers.add_parser(
                name, help=doc.split(".")[0], description=doc, allow_abbrev=False
            )
            parser.callback = callback
            parser.options = {"--help", *options}
            for option in options:
                parser.add_argument(option, **_OPTIONS[option])
        # name -> parser; callback is read at each call, so a wrapper set there runs
        self.commands = parsers.choices

    def main(self, args=None, **_):
        """Run the command that args (default sys.argv[1:]) name.  An error ends
        in one line on stderr and SystemExit; argparse would not name a bad
        first argument, nor an unknown option while a required one is
        missing, so both are checked here.  Other keywords are ignored."""
        args = sys.argv[1:] if args is None else list(args)
        try:
            if not args:
                raise ConfigInvalidError("Missing command.")
            if args[0] not in self.commands and args[0] not in ("-h", "--help"):
                kind = "option" if args[0].startswith("-") else "command"
                raise ConfigInvalidError(f"No such {kind} '{args[0]}'.")
            if args[0] in self.commands:
                # tokens after "--" are no options
                for token in itertools.takewhile("--".__ne__, args[1:]):
                    name = token.partition("=")[0]
                    if name.startswith("--") and name not in self.commands[args[0]].options:
                        raise ConfigInvalidError(f"No such option '{name}'.")
            options = vars(self.parse_args(args))
            code = self.commands[options.pop("command")].callback(**options)
            if code is None:
                return
            message = "certification FAILED"
        except (OverflowError, UnderflowError) as exc:
            kind = "overflow" if isinstance(exc, OverflowError) else "underflow"
            message, code = f"error: numerical {kind}: {exc}", 2
        except (ValueError, OSError) as exc:
            message, code = f"error: {exc}", 1
        sys.stdout.flush()
        sys.stderr.write(message + "\n")
        raise SystemExit(code)

    __call__ = main


def _space_from(cfg: RunConfig, normalization: str | None) -> GamowSubspace:
    chosen = normalization or cfg.get_choice("normalization", NORMALIZATIONS, "derivative")
    return GamowSubspace(cfg.pole(), chosen)


def decay_curve_cmd(config_path, out_path, fmt_name, normalization, exact):
    """Norm of every evolved operator against the pure exponential law.

    Emits one row per time: for each operator family member its evolved
    Frobenius norm, the exponential reference, and the relative deviation
    of the two; plain dyads |k><k| ride along for contrast.
    """
    cfg = load_config(config_path)
    table = decay_table(_space_from(cfg, normalization), cfg.grid("t", minimum_allowed=0.0), exact)
    _emit(out_path, _table_text(list(table), list(table.values()), fmt_name))


def lineshape_cmd(config_path, out_path, fmt_name):
    """Energy-domain intensity of each pole order, peak scaled to 1."""
    cfg = load_config(config_path)
    pole = cfg.pole()
    grid = cfg.grid("e")
    header = ["E"] + [f"intensity_n{n}" for n in range(pole.r)]
    _emit(out_path, _table_text(header, [grid, *lineshape(pole, grid)], fmt_name))


def pole_term_cmd(config_path, out_path):
    """Pole term of the configured pairing plus its decay-ratio table.

    Everything is read off one jet (pole_jet): the expansion
    coefficients, the pole term 2 pi exp(2i gamma(z)) Q(0), and the ratio
    table exp(-Gamma t) |Q(t) / Q(0)|**2 in one call.  Each value is read
    off p-bit balls of the jet and rounded as the exact one, which is
    built only where no ball decides the rounding.
    """
    cfg = load_config(config_path)
    model, psi, phi = cfg.model(), cfg.test_function("psi"), cfg.test_function("phi")
    grid = cfg.grid("t", minimum_allowed=0.0)
    jet = pole_jet(psi, phi, model)
    pole_term = jet.amplitude()
    # jet.probability(0.0), read off the same amplitude: exp(-Gamma 0) = 1,
    # so it is |pole_term|**2 rounded once
    p0 = pole_term.real * pole_term.real + pole_term.imag * pole_term.imag
    if p0 == math.inf:
        raise OverflowError("probability leaves the float range at t = 0.0")
    # ratios refuses a pole term that vanishes
    if p0 == 0.0 and not jet.vanishes:
        raise UnderflowError("probability at t = 0 is 0 in floating point; the pole term is not")
    table = [{"t": t, "ratio": q, "exponential_reference": e}
             for t, (q, e) in zip(grid, jet.ratios(grid))]
    payload = {
        "pole_term": _cplx(pole_term),
        "expansion_coeffs": [_cplx(b) for b in jet.expansion_coeffs],
        "probability_at_zero": p0,
        "ratio_table": table,
    }
    _emit(out_path, _json_text(payload))


def uniqueness_cmd(config_path, out_path):
    """Exact certificate that only the binomial anti-diagonal family
    decays purely exponentially; exit code 3 if certification fails."""
    cfg = load_config(config_path)
    j = cfg.get_int("j", cap=J_CAP)
    if j < 0:
        raise ConfigInvalidError(f"j must be nonnegative, got {j}")
    report = certify(j)
    _emit(out_path, _json_text(report))
    if not report["certified"]:
        return 3


def jordan_info_cmd(config_path, out_path, normalization):
    """Jordan-block structure report: Hamiltonian layouts, nilpotent
    norms, and the evolution matrix sampled at t = 1/Gamma."""
    cfg = load_config(config_path)
    space = _space_from(cfg, normalization)
    r = space.dimension
    sample_t = 1.0 / space.pole.Gamma

    def matrix_payload(rows):
        return [[_cplx(x) for x in row] for row in rows]

    payload = {
        "r": r,
        "normalization": space.normalization,
        "pole": {"E_R": space.pole.E_R, "Gamma": space.pole.Gamma},
        "hamiltonian_pairing_layout": matrix_payload(hamiltonian_matrix(space)),
        "hamiltonian_action_layout": matrix_payload(hamiltonian_action_matrix(space)),
        "nilpotent_norms": [nilpotent_norm(space, k) for k in range(r + 1)],
        "evolution_sample_t": sample_t,
        "evolution_sample": matrix_payload(evolution_matrix(space, sample_t)),
    }
    _emit(out_path, _json_text(payload))


main = _Main({
    "decay-curve": (decay_curve_cmd, "--config", "--out", "--format", "--normalization", "--exact"),
    "lineshape": (lineshape_cmd, "--config", "--out", "--format"),
    "pole-term": (pole_term_cmd, "--config", "--out"),
    "uniqueness": (uniqueness_cmd, "--config", "--out"),
    "jordan-info": (jordan_info_cmd, "--config", "--out", "--normalization"),
})

if __name__ == "__main__":
    main()
