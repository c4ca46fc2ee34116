"""Tests for the command line interface.

Covers config parsing, the exit-code contract, deterministic output and
the golden files generated from the shipped example configs, which are
themselves checked against mpmath closed forms.
"""

import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamowkit import algebra, smatrix
from gamowkit.cli import J_CAP, M_CAP, R_CAP, STEPS_CAP, RunConfig, main, parse_config_text
from gamowkit.cli import _csv_text, _json_text
from gamowkit.errors import ConfigInvalidError

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = REPO / "tests" / "golden"

# (command, shipped config, its golden output)
SHIPPED = [
    ("decay-curve", "decay_r1.conf", "decay_r1.csv"),
    ("decay-curve", "decay_r3.conf", "decay_r3.csv"),
    ("lineshape", "lineshape_r3.conf", "lineshape_r3.csv"),
    ("pole-term", "pole_term_r1.conf", "pole_term_r1.json"),
    ("pole-term", "pole_term_r2.conf", "pole_term_r2.json"),
    ("uniqueness", "uniqueness_j4.conf", "uniqueness_j4.json"),
    ("jordan-info", "decay_r3.conf", "jordan_info_r3.json"),
]

DECAY_CONF = """\
E_R = 2.0
Gamma = 1.0
r = 2
t_min = 0.0
t_max = 4.0
t_steps = 5
"""

POLE_CONF = """\
E_R = 2.0
Gamma = 1.0
r = 1
psi = 1.0 1 1.0 0.0
phi = 1.5 1 1.0 0.0
t_min = 0
t_max = 1
t_steps = 2
"""


@pytest.fixture
def runner():
    return CliRunner()


def _python_strict(*argv, env_extra=None):
    """A fresh interpreter on the sources that turns every warning into an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-W", "error", *argv],
        env=env,
        capture_output=True,
        text=True,
    )


def _run_strict(*args, env_extra=None):
    """The CLI in a fresh interpreter that turns every warning into an error."""
    return _python_strict("-m", "gamowkit.cli", *args, env_extra=env_extra)


class TestConfigParsing:
    def test_comments_and_blank_lines_ignored(self):
        data = parse_config_text("# header\n\nE_R = 2.0  # trailing\n")
        assert data == {"E_R": ["2.0"]}

    def test_repeated_keys_accumulate_in_order(self):
        data = parse_config_text("psi = a\npsi = b\n")
        assert data["psi"] == ["a", "b"]

    def test_missing_equals_sign_rejected(self):
        with pytest.raises(ConfigInvalidError):
            parse_config_text("E_R 2.0\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigInvalidError):
            parse_config_text("E_R =\n")


def _numpy_grid(lo: float, hi: float, steps: int) -> list:
    """The grid as numpy built it: lo alone for one step (numpy.linspace
    would turn lo = -0.0 into 0.0), else numpy.linspace, or twice the grid
    of the halves where the span hi - lo leaves the float range."""
    if steps == 1:
        return [lo.hex()]
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(lo, hi, steps)
        if not np.isfinite(grid).all():
            grid = 2.0 * np.linspace(lo / 2.0, hi / 2.0, steps)
    return [float(x).hex() for x in grid]


whole_range = st.floats(allow_nan=False, allow_infinity=False)
# spans of a few subnormals divided into many steps give step == 0
near_zero = st.floats(min_value=-1e-307, max_value=1e-307)


class TestGrid:
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(
        ends=st.tuples(whole_range, whole_range) | st.tuples(near_zero, near_zero),
        steps=st.integers(min_value=1, max_value=2000),
    )
    @example(ends=(0.0, 3 * 5e-324), steps=7)  # step == 0
    @example(ends=(-5e-324, 5e-324), steps=2000)  # step == 0
    @example(ends=(-1.7e308, 1.7e308), steps=5)  # the halves
    @example(ends=(-1.7976931348623157e308, 1.7976931348623157e308), steps=2000)
    @example(ends=(0.0, 6.0), steps=101)
    @example(ends=(-0.0, 1.0), steps=1)
    def test_grid_is_numpy_linspace_bit_for_bit(self, ends, steps):
        lo, hi = sorted(ends)
        cfg = RunConfig(parse_config_text(f"t_min = {lo!r}\nt_max = {hi!r}\nt_steps = {steps}\n"))
        assert [x.hex() for x in cfg.grid("t")] == _numpy_grid(lo, hi, steps)


class TestNumpyFree:
    def test_no_command_loads_numpy(self, tmp_path):
        # every command runs on the standard library alone: decay-curve on
        # both carriers, pole-term, uniqueness, jordan-info and lineshape
        # load neither numpy nor click nor any other module from outside it
        runs = [
            ("decay-curve", "decay_r1.conf", "decay_r1.csv"),
            ("decay-curve", "decay_r3.conf", "decay_r3.csv"),
            ("decay-curve --exact", "decay_r1.conf", None),
            ("decay-curve --exact", "decay_r3.conf", None),
            ("pole-term", "pole_term_r1.conf", "pole_term_r1.json"),
            ("pole-term", "pole_term_r2.conf", "pole_term_r2.json"),
            ("uniqueness", "uniqueness_j4.conf", "uniqueness_j4.json"),
            ("jordan-info", "decay_r3.conf", "jordan_info_r3.json"),
            ("lineshape", "lineshape_r3.conf", "lineshape_r3.csv"),
        ]
        calls = [
            [*command.split(), "--config", str(CONFIGS / config), "--out", str(tmp_path / str(i))]
            for i, (command, config, _) in enumerate(runs)
        ]
        # modules the interpreter loaded at start (site hooks) do not count
        script = (
            "import json, sys\n"
            "start = set(sys.modules)\n"
            "def outside():\n"
            "    names = {m.split('.')[0] for m in set(sys.modules) - start}\n"
            "    names -= {*sys.stdlib_module_names, 'gamowkit'}\n"
            "    return [sorted(names), 'numpy' in sys.modules, 'click' in sys.modules]\n"
            "import gamowkit.cli\n"
            "loaded = [outside()]\n"
            f"for args in {calls!r}:\n"
            "    gamowkit.cli.main.main(args=args, prog_name='gamowkit', standalone_mode=False)\n"
            "    loaded.append(outside())\n"
            "print(json.dumps(loaded))\n"
        )
        done = _python_strict("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        # after the import, then after each run in order
        assert json.loads(done.stdout) == [[[], False, False]] * 10
        for i, (_, _, golden) in enumerate(runs):
            if golden is not None:
                assert (tmp_path / str(i)).read_bytes() == (GOLDEN / golden).read_bytes()


class TestExitCodes:
    def test_missing_config_file(self, runner):
        result = runner.invoke(main, ["decay-curve", "--config", "/nonexistent.conf"])
        assert result.exit_code == 1

    def test_invalid_pole_parameters(self, runner, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("E_R = 2.0\nGamma = -1.0\nr = 1\nt_min = 0\nt_max = 1\nt_steps = 2\n")
        result = runner.invoke(main, ["decay-curve", "--config", str(conf)])
        assert result.exit_code == 1
        assert "Gamma" in result.output

    def test_missing_required_key(self, runner, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("E_R = 2.0\nGamma = 1.0\n")
        result = runner.invoke(main, ["decay-curve", "--config", str(conf)])
        assert result.exit_code == 1

    def test_bad_grid_rejected(self, runner, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text(
            "E_R = 2.0\nGamma = 1.0\nr = 1\nt_min = 2.0\nt_max = 1.0\nt_steps = 5\n"
        )
        result = runner.invoke(main, ["decay-curve", "--config", str(conf)])
        assert result.exit_code == 1

    def test_negative_time_grid_rejected(self, runner, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text(
            "E_R = 2.0\nGamma = 1.0\nr = 1\nt_min = -1.0\nt_max = 1.0\nt_steps = 5\n"
        )
        result = runner.invoke(main, ["decay-curve", "--config", str(conf)])
        assert result.exit_code == 1

    def test_j_above_cap_rejected(self, runner, tmp_path):
        conf = tmp_path / "big.conf"
        conf.write_text(f"j = {J_CAP + 1}\n")
        result = runner.invoke(main, ["uniqueness", "--config", str(conf)])
        assert result.exit_code == 1
        assert "cap" in result.output

    def test_r_above_cap_rejected(self, runner, tmp_path):
        conf = tmp_path / "big.conf"
        conf.write_text(DECAY_CONF.replace("r = 2", f"r = {R_CAP + 1}"))
        for command in ("decay-curve", "jordan-info", "lineshape", "pole-term"):
            result = runner.invoke(main, [command, "--config", str(conf)])
            assert result.exit_code == 1
            assert result.stderr == f"error: r = {R_CAP + 1} exceeds the cap {R_CAP}\n"

    @pytest.mark.parametrize("key,a", [("psi", "1.0"), ("phi", "1.5")])
    def test_test_function_order_above_cap_rejected(self, runner, tmp_path, key, a):
        conf = tmp_path / "big.conf"
        for m, code in ((M_CAP, 0), (M_CAP + 1, 1)):
            conf.write_text(POLE_CONF.replace(f"{key} = {a} 1 ", f"{key} = {a} {m} "))
            result = runner.invoke(main, ["pole-term", "--config", str(conf)])
            assert result.exit_code == code
        assert result.stderr == f"error: {key} pole order m = {M_CAP + 1} exceeds the cap {M_CAP}\n"

    def test_steps_above_cap_rejected(self, runner, tmp_path):
        conf = tmp_path / "big.conf"
        conf.write_text(DECAY_CONF.replace("t_steps = 5", f"t_steps = {STEPS_CAP + 1}"))
        result = runner.invoke(main, ["decay-curve", "--config", str(conf)])
        assert result.exit_code == 1
        assert result.stderr == f"error: t_steps = {STEPS_CAP + 1} exceeds the cap {STEPS_CAP}\n"

    @pytest.mark.parametrize(
        "args,text",
        [
            (["decay-curve"], "--config"),
            (["decay-curve", "--config", "x.conf", "--format", "xml"], "'xml'"),
            (["no-such-command"], "No such command 'no-such-command'"),
            (["--no-such-option"], "No such option '--no-such-option'"),
            ([], "Missing command"),
            (["uniqueness", "--config", "x.conf", "extra"], "extra"),
            (["uniqueness", "--config"], "--config"),
            (["uniqueness", "--config", "x.conf", "--format", "csv"], "--format"),
            # an unknown option is named before the missing --config
            (["decay-curve", "--conf", "x.conf"], "No such option '--conf'."),
            (["lineshape", "--conf=x.conf"], "No such option '--conf'."),
            (["pole-term", "--out", "x.json", "--conf", "x.conf"], "No such option '--conf'."),
            (["uniqueness", "--conf", "x.conf"], "No such option '--conf'."),
            (["jordan-info", "--conf=x.conf", "--normalization", "factorial"],
             "No such option '--conf'."),
        ],
    )
    def test_usage_error_exits_one_with_one_line(self, runner, args, text):
        # exit 2 is kept for overflow; a usage block would take three lines
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")
        assert text in result.stderr

    @pytest.mark.parametrize(
        "args,text",
        [
            (["--help"], ["decay-curve", "lineshape", "pole-term", "uniqueness", "jordan-info"]),
            (["decay-curve", "--help"], ["--config", "--out", "--format", "--normalization",
                                         "--exact"]),
        ],
        ids=["gamowkit", "decay-curve"],
    )
    def test_help_exits_zero(self, args, text):
        done = _run_strict(*args)
        assert done.returncode == 0
        assert done.stderr == ""
        assert all(word in done.stdout for word in text)

    def test_overflow_maps_to_two(self, runner, tmp_path):
        # ||W||**2 ~ Gamma**30 leaves the float range at r = 16
        conf = tmp_path / "big.conf"
        conf.write_text("E_R = 2.0\nGamma = 1e20\nr = 16\nt_min = 0\nt_max = 0\nt_steps = 1\n")
        result = runner.invoke(main, ["decay-curve", "--config", str(conf)])
        assert result.exit_code == 2
        assert "overflow" in result.output

    def test_scaled_norm_overflow_maps_to_two(self, runner, tmp_path):
        # the exact norms are 1 at r = 1; only the 2 pi Gamma scale of W overflows
        conf = tmp_path / "big.conf"
        conf.write_text("E_R = 2.0\nGamma = 1e308\nr = 1\nt_min = 0\nt_max = 0\nt_steps = 1\n")
        result = runner.invoke(main, ["decay-curve", "--config", str(conf)])
        assert result.exit_code == 2
        assert "overflow" in result.output

    @pytest.mark.parametrize(
        "command,text",
        [
            ("decay-curve", DECAY_CONF.replace("t_max = 4.0", "t_max = nan")),
            ("decay-curve", DECAY_CONF.replace("E_R = 2.0", "E_R = inf")),
            ("decay-curve", DECAY_CONF.replace("Gamma = 1.0", "Gamma = -inf")),
            ("pole-term", POLE_CONF + "gamma = 0.5\ngamma = nan\n"),
            ("pole-term", POLE_CONF.replace("psi = 1.0 1 1.0 0.0", "psi = 1.0 1 inf 0.0")),
            ("pole-term", POLE_CONF.replace("phi = 1.5 1 1.0 0.0", "phi = nan 1 1.0 0.0")),
        ],
        ids=["t_max-nan", "E_R-inf", "Gamma-minus-inf", "gamma-nan", "psi-inf", "phi-nan"],
    )
    def test_non_finite_numbers_rejected(self, runner, tmp_path, command, text):
        conf = tmp_path / "bad.conf"
        conf.write_text(text)
        result = runner.invoke(main, [command, "--config", str(conf)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert len(result.output.splitlines()) == 1
        assert result.output.startswith("error: key ")

    def test_underflowing_norm_keeps_the_table(self, runner, tmp_path):
        # the w2 norm Gamma**2 / 2 sqrt(6) underflows; the exact squared
        # norms are scaled by a power of four before rounding, so every
        # deviation is the Gamma = 1 one and the norms print rounded
        tables = {}
        for gamma in ("1e-300", "1.0"):
            conf = tmp_path / f"g{gamma}.conf"
            conf.write_text(
                f"E_R = 2.0\nGamma = {gamma}\nr = 3\nt_min = 0\nt_max = 2\nt_steps = 3\n"
            )
            result = runner.invoke(main, ["decay-curve", "--config", str(conf)])
            assert result.exit_code == 0, result.output
            tables[gamma] = list(csv.reader(io.StringIO(result.output)))
        (header, *tiny), (_, *unit) = tables["1e-300"], tables["1.0"]
        for row_tiny, row_unit in zip(tiny, unit):
            for name, a, b in zip(header, row_tiny, row_unit):
                if name.endswith("_deviation"):
                    assert a == b, name
        values = dict(zip(header, map(float, tiny[0])))
        assert values["w2_norm"] == values["w2_exp_law"] == 0.0
        with mpmath.workdps(40):
            want = float(mpmath.mpf(1e-300) * mpmath.sqrt(2))
        assert abs(values["w1_norm"] - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("gamma,t_max", [(1.0, 1e6), (3.3, 1000.0)])
    def test_underflowing_exp_law_keeps_the_table(self, runner, tmp_path, gamma, t_max):
        # exp(-Gamma t) underflows at t_max; the deviations compare the
        # unphased norms, so they stay finite and the table is printed
        conf = tmp_path / "long.conf"
        conf.write_text(
            f"E_R = 2.0\nGamma = {gamma}\nr = 3\nt_min = 0\nt_max = {t_max}\nt_steps = 3\n"
        )
        result = runner.invoke(main, ["decay-curve", "--config", str(conf)])
        assert result.exit_code == 0
        header, *rows = list(csv.reader(io.StringIO(result.output)))
        assert len(rows) == 3
        assert all(math.isfinite(v) for row in rows for v in map(float, row))
        values = {name: float(v) for name, v in zip(header, rows[-1])}
        assert values["w2_exp_law"] == 0.0 and values["w2_deviation"] == 0.0
        # |1><1| has unphased norm 1 + t**2
        assert values["dyad1_deviation"] == t_max**2

    def test_norm_beyond_float_range_maps_to_two(self, runner, tmp_path):
        # dyad norms grow like t**(2k): at t = 1e12 and r = 16 they pass 1e308
        conf = tmp_path / "long.conf"
        conf.write_text("E_R = 2.0\nGamma = 1e-10\nr = 16\nt_min = 0\nt_max = 1e12\nt_steps = 3\n")
        result = runner.invoke(main, ["decay-curve", "--config", str(conf)])
        assert result.exit_code == 2
        assert "numerical overflow" in result.output

    def test_failed_certification_maps_to_three(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr("gamowkit.cli.certify", lambda j: {"j": j, "certified": False})
        conf = tmp_path / "u.conf"
        conf.write_text("j = 2\n")
        out = tmp_path / "u.json"
        result = runner.invoke(
            main, ["uniqueness", "--config", str(conf), "--out", str(out)]
        )
        assert result.exit_code == 3
        assert json.loads(out.read_text())["certified"] is False

    def test_steep_phase_beyond_float_range_maps_to_two(self, runner, tmp_path):
        # |exp(2i gamma(z))| = exp(364.25): probability_at_zero is about 1e316
        conf = tmp_path / "p.conf"
        conf.write_text(POLE_CONF + "gamma = 0\ngamma = 0\ngamma = 0\ngamma = 31\n")
        result = runner.invoke(main, ["pole-term", "--config", str(conf)])
        assert result.exit_code == 2
        assert len(result.output.splitlines()) == 1
        assert "numerical overflow" in result.output

    @pytest.mark.parametrize(
        "change",
        [("r = 1", "r = 1"), ("r = 1", "r = 3\ngamma = 0\ngamma = 0.5"),
         ("E_R = 2.0", "E_R = 1e80")],
        ids=["simple", "order_three", "subnormal"],
    )
    def test_probability_at_zero_is_the_jets(self, runner, tmp_path, change):
        # pole-term squares the amplitude it prints rather than reading it a
        # second time; that is jet.probability(0.0), here down to a subnormal
        text = POLE_CONF.replace(*change)
        cfg = RunConfig(parse_config_text(text))
        jet = smatrix.pole_jet(cfg.test_function("psi"), cfg.test_function("phi"), cfg.model())
        conf = tmp_path / "p.conf"
        conf.write_text(text)
        result = runner.invoke(main, ["pole-term", "--config", str(conf)])
        assert json.loads(result.stdout)["probability_at_zero"] == jet.probability(0.0)

    @pytest.mark.parametrize(
        "pole,legs,message",
        [
            # b_2 ~ Gamma**3 leaves the float range before any output
            ("E_R = 1e-300\nGamma = 1e300\nr = 4", ("1.0 1 1.0 0.0", "1.5 1 1.0 0.0"),
             "expansion_coeffs[2] leaves the float range"),
            # b_0 ~ phi(z) ~ 1e300 fits; the pole term b_0 psi(z) ~ 1e600 does not
            ("E_R = 2.0\nGamma = 1.0\nr = 1", ("1.0 1 1e300 0.0", "1.0 1 1e300 0.0"),
             "pole_term at t = 0.0 leaves the float range"),
            # gamma(z) = 1e200 z**2 fits, but |exp(2i gamma(z))| = exp(4e200) does not
            ("E_R = 2.0\nGamma = 1.0\nr = 3\ngamma = 0\ngamma = 0\ngamma = 1e200",
             ("1.0 1 1.0 0.0", "1.5 1 1.0 0.0"),
             "phase factor exp(2i gamma(z)) leaves the float range"),
            # gamma(z) ~ 1e200 * 1e600 itself has no float value
            ("E_R = 1e300\nGamma = 1.0\nr = 2\ngamma = 0\ngamma = 0\ngamma = 1e200",
             ("1.0 1 1.0 0.0", "1.5 1 1.0 0.0"),
             "phase factor exp(2i gamma(z)) leaves the float range"),
            # the pole term ~ 1e158 fits; its square, probability_at_zero, does not
            ("E_R = 2.0\nGamma = 1.0\nr = 1\ngamma = 0\ngamma = 0\ngamma = 0\ngamma = 31",
             ("1.0 1 1.0 0.0", "1.5 1 1.0 0.0"),
             "probability leaves the float range at t = 0.0"),
        ],
        ids=["expansion_coeffs", "pole_term", "phase_factor", "phase_argument", "probability"],
    )
    def test_pole_term_beyond_float_range_names_its_field(self, runner, tmp_path, pole, legs,
                                                          message):
        conf = tmp_path / "p.conf"
        grid = "t_min = 0\nt_max = 1\nt_steps = 2\n"
        conf.write_text(f"{pole}\npsi = {legs[0]}\nphi = {legs[1]}\n{grid}")
        result = runner.invoke(main, ["pole-term", "--config", str(conf)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: numerical overflow: {message}\n"

    def test_underflowing_pole_term_maps_to_two(self, runner, tmp_path):
        # psi(z) phi(z) ~ 1e-600: exactly nonzero, 0 in floating point
        conf = tmp_path / "p.conf"
        conf.write_text(POLE_CONF.replace("E_R = 2.0", "E_R = 1e300"))
        result = runner.invoke(main, ["pole-term", "--config", str(conf)])
        assert result.exit_code == 2
        assert len(result.output.splitlines()) == 1
        assert "numerical underflow" in result.output

    @pytest.mark.parametrize("width", ["1e-300", "5e-324"])
    def test_lineshape_peak_below_float_range_reads_one(self, tmp_path, width):
        # |E - z|**2 = Gamma**2 / 4 underflows at the grid point E = E_R, and
        # at 5e-324 so does Gamma / 2; the intensities are still 0, 1, 0
        conf = tmp_path / "l.conf"
        conf.write_text(f"E_R = 2.0\nGamma = {width}\nr = 1\ne_min = 1.0\ne_max = 3.0\ne_steps = 3\n")
        done = _run_strict("lineshape", "--config", str(conf))
        assert done.returncode == 0
        assert done.stderr == ""
        _, *rows = list(csv.reader(io.StringIO(done.stdout)))
        assert rows == [["1", "0"], ["2", "1"], ["3", "0"]]
        with mpmath.workdps(50):
            half = mpmath.mpf(float(width)) / 2
            for e, got in rows:
                want = half**2 / ((mpmath.mpf(float(e)) - 2) ** 2 + half**2)
                assert abs(float(got) - want) <= 2.0**-53 * want + 2.0**-1074

    @pytest.mark.parametrize("pole", ["E_R = 1e308\nGamma = 0.5", "E_R = 2.0\nGamma = 5e-324"])
    def test_jordan_info_phase_beyond_float_range_maps_to_two(self, tmp_path, pole):
        # z t at the sample time t = 1/Gamma is not finite, so exp(-i z t)
        # has no float value; no RuntimeWarning may precede the error line
        conf = tmp_path / "j.conf"
        conf.write_text(f"{pole}\nr = 2\n")
        done = _run_strict("jordan-info", "--config", str(conf))
        assert done.returncode == 2
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error: numerical overflow: ")

    def test_jordan_info_evolution_beyond_float_range_names_t(self, tmp_path):
        # exp(-i z t) is finite at the sample time t = 1/Gamma, but the
        # power (-i t)**2 of the evolution matrix is not
        conf = tmp_path / "j.conf"
        conf.write_text("E_R = 2.0\nGamma = 1e-300\nr = 3\n")
        done = _run_strict("jordan-info", "--config", str(conf))
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            "error: numerical overflow: the evolution matrix leaves the float range"
            " at t = 9.999999999999999e+299\n"
        )

    def test_lineshape_far_from_a_huge_pole_is_not_zero(self, tmp_path):
        # |E - z|**2 overflows at E = 5e154 and 1e155, the peak at E = 0 does not
        conf = tmp_path / "l.conf"
        conf.write_text("E_R = 1e150\nGamma = 1e150\nr = 1\ne_min = 0\ne_max = 1e155\ne_steps = 3\n")
        done = _run_strict("lineshape", "--config", str(conf))
        assert done.returncode == 0
        assert done.stderr == ""
        _, *rows = list(csv.reader(io.StringIO(done.stdout)))
        with mpmath.workdps(30):
            z = mpmath.mpc(1e150, -0.5e150)
            peak = abs(z) ** 2
            for e, got in rows:
                want = peak / abs(mpmath.mpf(float(e)) - z) ** 2
                assert abs(float(got) - want) <= 3e-16 * want

    def test_lineshape_overflowing_on_the_whole_grid_is_scaled(self, tmp_path):
        # |E - z|**2 overflows at the one grid point, whose scaled value
        # (d_min / d)**2 is 1
        conf = tmp_path / "l.conf"
        conf.write_text(
            "E_R = 3e292\nGamma = 1\nr = 1\n"
            "e_min = -1.7976931348623155e+308\ne_max = -1.7976931348623155e+308\ne_steps = 1\n"
        )
        done = _run_strict("lineshape", "--config", str(conf))
        assert done.returncode == 0
        assert done.stderr == ""
        assert done.stdout == "E,intensity_n0\n-1.7976931348623155e+308,1\n"

    def test_pole_term_ratio_beyond_the_quotient_range_reads_zero(self, runner, tmp_path):
        # |Q(t)/Q(0)|**2 ~ t**6 leaves the float range at t = 1e100, where
        # exp(-Gamma t) is 0 long since; rows before keep their values
        conf = tmp_path / "p.conf"
        conf.write_text(
            POLE_CONF.replace("r = 1", "r = 4").replace("t_max = 1", "t_max = 1e100")
            .replace("t_steps = 2", "t_steps = 3")
        )
        result = runner.invoke(main, ["pole-term", "--config", str(conf)])
        assert result.exit_code == 0, result.output
        rows = json.loads(result.output)["ratio_table"]
        assert [row["t"] for row in rows] == [0.0, 5e99, 1e100]
        assert [row["ratio"] for row in rows] == [1.0, 0.0, 0.0]

    def test_jordan_info_at_the_largest_pole_is_silent(self, tmp_path):
        # the nilpotent part is built from its integer weights, so no
        # float z is formed only to cancel
        conf = tmp_path / "j.conf"
        conf.write_text("E_R = 1.7e308\nGamma = 1.7e308\nr = 3\n")
        done = _run_strict("jordan-info", "--config", str(conf))
        assert done.returncode == 0
        assert done.stderr == ""
        assert json.loads(done.stdout)["nilpotent_norms"] == [math.sqrt(3), math.sqrt(5), 2.0, 0.0]

    def test_vanishing_pole_term_rejected(self, runner, tmp_path):
        conf = tmp_path / "p.conf"
        conf.write_text(
            "E_R = 2.0\nGamma = 1.0\nr = 1\npsi = 1.0 1 0.0 0.0\n"
            "phi = 1.5 1 1.0 0.0\nt_min = 0\nt_max = 1\nt_steps = 2\n"
        )
        result = runner.invoke(main, ["pole-term", "--config", str(conf)])
        assert result.exit_code == 1
        assert result.output == "error: pole term vanishes at t = 0; ratio table undefined\n"


def _dyad_norm(k: int, Gamma: float, t: float):
    """exp(-Gamma t) s_k(t) in mpmath, s_k(t) = sum_p binom(k, p)**2 t**(2(k-p))."""
    G, t = mpmath.mpf(Gamma), mpmath.mpf(t)
    return mpmath.exp(-G * t) * sum(comb(k, p) ** 2 * t ** (2 * (k - p)) for p in range(k + 1))


class TestCarriedExponent:
    """Values that are floats although a factor of them is not, which exited
    2 or printed 0 while exp(-Gamma t) was read as a bare float, and a
    value that is not a float, which still exits 2 naming its column."""

    def test_norm_where_the_squared_norm_overflows(self, runner, tmp_path):
        # N(t) of |20><20| is about 1e314 at t = 8342.86, the norm 3.2e152
        conf = tmp_path / "d.conf"
        conf.write_text(
            "E_R = 2.0\nGamma = 0.0011986299841722909\nr = 24\n"
            "t_min = 0\nt_max = 8342.85820649269\nt_steps = 7\n"
        )
        result = runner.invoke(main, ["decay-curve", "--exact", "--config", str(conf)])
        assert result.exit_code == 0, result.output
        header, *rows = list(csv.reader(io.StringIO(result.output)))
        got = float(rows[-1][header.index("dyad20_norm")])
        with mpmath.workdps(40):
            want = _dyad_norm(20, 0.0011986299841722909, 8342.85820649269)
            assert abs(got - want) <= 1e-15 * want
        assert got == pytest.approx(3.2333459594357051e152, rel=1e-15)

    def test_norm_where_the_exponential_underflows(self, runner, tmp_path):
        # exp(-800) is below the float range, exp(-800) s_7(800) is 1.6e-307
        conf = tmp_path / "d.conf"
        conf.write_text("E_R = 2.0\nGamma = 1.0\nr = 8\nt_min = 800\nt_max = 800\nt_steps = 1\n")
        result = runner.invoke(main, ["decay-curve", "--config", str(conf)])
        assert result.exit_code == 0, result.output
        header, row = list(csv.reader(io.StringIO(result.output)))
        got = float(row[header.index("dyad7_norm")])
        with mpmath.workdps(40):
            want = _dyad_norm(7, 1.0, 800.0)
            assert abs(got - want) <= 1e-15 * want
        assert got == pytest.approx(1.6133e-307, rel=1e-4)

    def test_ratio_where_the_exponential_underflows(self, runner, tmp_path):
        # the ratio at t = 760 is 2.0e-298; its reference exp(-760) = 8.6e-331
        # lies below the subnormal range and reads 0
        config = (CONFIGS / "pole_term_r2.conf").read_text()
        config = config.replace("r = 2", "r = 8").replace("t_max = 10.0", "t_max = 760")
        config = config.replace("t_steps = 11", "t_steps = 2")
        conf = tmp_path / "p.conf"
        conf.write_text(config)
        result = runner.invoke(main, ["pole-term", "--config", str(conf)])
        assert result.exit_code == 0, result.output
        last = json.loads(result.output)["ratio_table"][-1]
        assert last["t"] == 760.0 and last["exponential_reference"] == 0.0
        fields = dict((name, want) for name, _, want in _pole_fields(config, json.loads(result.output)))
        want = fields["ratio at t = 760.0"]
        assert abs(last["ratio"] - want) <= 1e-15 * want
        assert last["ratio"] == pytest.approx(2.0225319744981917e-298, rel=1e-15)

    def test_deviation_beyond_the_float_range_names_its_column(self, runner, tmp_path):
        # every norm is 0 at t = 1e80, but the dyad2 deviation t**4 + 4 t**2
        # is 1e320
        conf = tmp_path / "d.conf"
        conf.write_text("E_R = 1.0\nGamma = 1.0\nr = 3\nt_min = 0\nt_max = 1e80\nt_steps = 2\n")
        result = runner.invoke(main, ["decay-curve", "--config", str(conf)])
        assert result.exit_code == 2
        assert result.output == (
            "error: numerical overflow: dyad2_deviation leaves the float range at t = 1e+80\n"
        )


class TestDecayCurve:
    def test_csv_header_lists_all_operators(self, runner, tmp_path):
        conf = tmp_path / "d.conf"
        conf.write_text(DECAY_CONF)
        result = runner.invoke(main, ["decay-curve", "--config", str(conf)])
        assert result.exit_code == 0
        header = result.output.splitlines()[0].split(",")
        assert header[0] == "t"
        assert "w0_norm" in header and "w1_deviation" in header
        assert "wsum_exp_law" in header
        assert "dyad1_deviation" in header
        assert len(result.output.splitlines()) == 1 + 5

    def test_json_format_mirrors_csv(self, runner, tmp_path):
        conf = tmp_path / "d.conf"
        conf.write_text(DECAY_CONF)
        result = runner.invoke(
            main, ["decay-curve", "--config", str(conf), "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["columns"][0] == "t"
        assert len(payload["rows"]) == 5

    def test_family_deviation_columns_stay_tiny(self, runner, tmp_path):
        conf = tmp_path / "d.conf"
        conf.write_text(DECAY_CONF)
        result = runner.invoke(
            main, ["decay-curve", "--config", str(conf), "--format", "json"]
        )
        payload = json.loads(result.output)
        cols = payload["columns"]
        for name in ("w0_deviation", "w1_deviation", "wsum_deviation"):
            idx = cols.index(name)
            assert max(row[idx] for row in payload["rows"]) < 1e-12

    def test_dyad_deviation_grows_monotonically(self, runner, tmp_path):
        conf = tmp_path / "d.conf"
        conf.write_text(DECAY_CONF)
        result = runner.invoke(
            main, ["decay-curve", "--config", str(conf), "--format", "json"]
        )
        payload = json.loads(result.output)
        idx = payload["columns"].index("dyad1_deviation")
        series = [row[idx] for row in payload["rows"]]
        assert all(b > a for a, b in zip(series, series[1:]))

    def test_exact_flag_gives_zero_family_deviation(self, runner, tmp_path):
        conf = tmp_path / "d.conf"
        conf.write_text(DECAY_CONF)
        result = runner.invoke(
            main,
            ["decay-curve", "--config", str(conf), "--format", "json", "--exact"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        idx = payload["columns"].index("w0_deviation")
        assert max(row[idx] for row in payload["rows"]) < 1e-14

    @pytest.mark.parametrize("gamma,r", [("0.9137", 16), ("0.37", 20)])
    def test_float_family_is_exact_at_high_order(self, runner, tmp_path, gamma, r):
        # W(n) is built exactly and rounded only when printed, so at any
        # order its deviation cancels to 0 and its norm is the closed form
        conf = tmp_path / "high.conf"
        conf.write_text(
            f"E_R = 2.0\nGamma = {gamma}\nr = {r}\nt_min = 0.0\nt_max = 10.0\nt_steps = 11\n"
        )
        result = runner.invoke(main, ["decay-curve", "--config", str(conf), "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        cols = payload["columns"]
        with mpmath.workdps(40):
            G = mpmath.mpf(float(gamma))
            fam0 = [G**n / factorial(n) * mpmath.sqrt(comb(2 * n, n)) for n in range(r)]
            wsum0 = 2 * mpmath.pi * G * mpmath.sqrt(
                sum(comb(r, n + 1) ** 2 * fam0[n] ** 2 for n in range(r))
            )
            for row in payload["rows"]:
                decay = mpmath.exp(-G * mpmath.mpf(row[0]))
                for name, norm0 in [(f"w{n}", fam0[n]) for n in range(r)] + [("wsum", wsum0)]:
                    assert row[cols.index(f"{name}_deviation")] == 0.0
                    want = float(norm0 * decay)
                    assert abs(row[cols.index(f"{name}_norm")] - want) <= 8 * math.ulp(want)

    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    def test_exact_flag_only_drops_two_pi_gamma(self, runner, tmp_path, normalization):
        conf = tmp_path / "d.conf"
        conf.write_text(
            DECAY_CONF.replace("Gamma = 1.0", "Gamma = 0.9137").replace("r = 2", "r = 16")
            + f"normalization = {normalization}\n"
        )
        tables = [
            list(csv.reader(io.StringIO(runner.invoke(main, args).output)))
            for args in (
                ["decay-curve", "--config", str(conf)],
                ["decay-curve", "--config", str(conf), "--exact"],
            )
        ]
        (header, *floats), (_, *exacts) = tables
        scaled = {"wsum_norm", "wsum_exp_law"}
        for row_f, row_e in zip(floats, exacts):
            for name, f, e in zip(header, row_f, row_e):
                if name in scaled:
                    assert float(f) / float(e) == pytest.approx(2 * math.pi * 0.9137, rel=1e-15)
                else:
                    assert f == e, name
        assert len(floats) == len(exacts) == 5

    def test_normalization_flag_changes_output(self, runner):
        # the two normalizations first differ at r = 3
        conf = str(CONFIGS / "decay_r3.conf")
        derivative = runner.invoke(main, ["decay-curve", "--config", conf])
        factorial = runner.invoke(
            main, ["decay-curve", "--config", conf, "--normalization", "factorial"]
        )
        assert derivative.exit_code == 0 and factorial.exit_code == 0
        assert derivative.output != factorial.output


class TestOtherCommands:
    def test_lineshape_columns_per_order(self, runner):
        result = runner.invoke(
            main, ["lineshape", "--config", str(CONFIGS / "lineshape_r3.conf")]
        )
        assert result.exit_code == 0
        header = result.output.splitlines()[0].split(",")
        assert header == ["E", "intensity_n0", "intensity_n1", "intensity_n2"]

    def test_lineshape_golden_within_the_stated_bound_of_mpmath(self):
        # each intensity within (n + 2) * 2**-53 of the exact (D_min / D)**(n+1)
        cfg = RunConfig(parse_config_text((CONFIGS / "lineshape_r3.conf").read_text()))
        _, *rows = csv.reader(io.StringIO((GOLDEN / "lineshape_r3.csv").read_text()))
        assert len(rows) == len(cfg.grid("e"))
        with mpmath.workdps(50):
            half = mpmath.mpf(cfg.get_float("Gamma")) / 2
            squared = [(mpmath.mpf(float(row[0])) - cfg.get_float("E_R")) ** 2 + half**2 for row in rows]
            nearest = min(squared)
            for row, d in zip(rows, squared):
                for n, got in enumerate(row[1:]):
                    want = (nearest / d) ** (n + 1)
                    assert abs(mpmath.mpf(float(got)) - want) <= (n + 2) * 2.0**-53 * want

    def test_lineshape_reads_only_its_own_keys(self, runner, tmp_path):
        # gamma and absorb_gauge are pole-term keys: lineshape passes over
        # malformed ones and prints its golden bytes
        conf = tmp_path / "l.conf"
        conf.write_text(
            (CONFIGS / "lineshape_r3.conf").read_text() + "gamma = junk\nabsorb_gauge = maybe\n"
        )
        result = runner.invoke(main, ["lineshape", "--config", str(conf)])
        assert result.exit_code == 0
        assert result.stderr == ""
        assert result.stdout == (GOLDEN / "lineshape_r3.csv").read_text()

    @pytest.mark.parametrize(
        "line,message",
        [
            ("gamma = junk", "error: key 'gamma': expected finite numbers\n"),
            ("absorb_gauge = maybe",
             "error: key 'absorb_gauge': expected one of ('true', 'false'), got 'maybe'\n"),
        ],
        ids=["gamma", "absorb_gauge"],
    )
    def test_pole_term_rejects_a_malformed_phase_key(self, runner, tmp_path, line, message):
        conf = tmp_path / "p.conf"
        conf.write_text(POLE_CONF + line + "\n")
        result = runner.invoke(main, ["pole-term", "--config", str(conf)])
        assert result.exit_code == 1
        assert result.stderr == message

    def test_pole_term_payload_keys(self, runner):
        result = runner.invoke(
            main, ["pole-term", "--config", str(CONFIGS / "pole_term_r1.conf")]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert set(payload) == {
            "pole_term",
            "expansion_coeffs",
            "probability_at_zero",
            "ratio_table",
        }
        assert len(payload["expansion_coeffs"]) == 1

    def test_uniqueness_report_round_trip(self, runner, tmp_path):
        conf = tmp_path / "u.conf"
        conf.write_text("j = 2\n")
        result = runner.invoke(main, ["uniqueness", "--config", str(conf)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["certified"] is True
        assert payload["nullspace_dimension"] == 3

    def test_jordan_info_fields(self, runner):
        result = runner.invoke(
            main, ["jordan-info", "--config", str(CONFIGS / "decay_r3.conf")]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["r"] == 3
        assert payload["evolution_sample_t"] == 1.0
        assert payload["nilpotent_norms"][-1] == 0.0
        assert payload["hamiltonian_pairing_layout"][1][0] == {"re": 1.0, "im": 0.0}

    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    def test_jordan_info_nilpotent_norms_are_correctly_rounded(self, runner, tmp_path,
                                                               normalization):
        # oracle: the exact sum of squares of the integer superdiagonal
        # w_m w_(m-1) ... w_(m-k+1) of (H - z)**k; each printed norm must lie
        # between the roots of the midpoints to its float neighbours.  The
        # float matrix rounds perm(m, k) above 2**53, first off at r = 24
        conf = tmp_path / "j.conf"
        for r in range(1, R_CAP + 1):
            conf.write_text(f"E_R = 2.0\nGamma = 1.0\nr = {r}\nnormalization = {normalization}\n")
            result = runner.invoke(main, ["jordan-info", "--config", str(conf)])
            assert result.exit_code == 0
            norms = json.loads(result.output)["nilpotent_norms"]
            assert len(norms) == r + 1
            for k, value in enumerate(norms):
                derivative = normalization == "derivative"
                square = sum(math.prod(range(m - k + 1, m + 1)) ** 2 if derivative else 1
                             for m in range(k, r))
                below, above = math.nextafter(value, 0.0), math.nextafter(value, math.inf)
                low = (Fraction(below) + Fraction(value)) / 2
                high = (Fraction(value) + Fraction(above)) / 2
                assert low * low <= square <= high * high, (r, k)


# pole-term configs whose output bytes are pinned: every order up to 8 with
# each class of background phase, the shipped configs, and poles from the
# whole range up to the cap of r, each of which runs in under 1 s
PIN_PHASES = {
    "flat": ["0.3"],
    "linear": ["0.3", "0.5"],
    "quadratic": ["0.3", "0.5", "-0.25"],
    "cubic": ["0.3", "0.5", "-0.25", "0.125"],
}
PIN_WIDE = {
    "r32-narrow": (32, "1e10", "1e-10", [], "10.0"),
    "r32-tiny-width": (32, "2.0", "1e-30", [], "10.0"),
    "r32-wide": (32, "1e-3", "1e3", [], "1e300"),
    "r32-quadratic": (32, "1e3", "1e-3", ["0.25", "-0.5"], "1e4"),
    "r16-underflow": (16, "1e100", "1e-100", [], "10.0"),
    "r12-subnormal-width": (12, "1e-300", "5e-324", [], "10.0"),
    "r20-overflow": (20, "1e200", "1e150", [], "10.0"),
    "r8-overflow": (8, "1e-300", "1e300", [], "10.0"),
    "r8-far": (8, "1e300", "1.0", [], "10.0"),
}


def _pin_configs() -> dict:
    """name -> config text of every pinned pole-term run."""
    confs = {name: (CONFIGS / name).read_text()
             for name in ("pole_term_r1.conf", "pole_term_r2.conf")}
    legs = "psi = 0.8 2 1.0 0.25\npsi = 1.7 1 -0.5 0.75\nphi = 1.2 3 0.9 -0.3\n"
    for r in range(1, 9):
        for phase, gamma in PIN_PHASES.items():
            confs[f"r{r}-{phase}"] = (
                f"E_R = 2.5\nGamma = 0.75\nr = {r}\n" + "".join(f"gamma = {g}\n" for g in gamma)
                + legs + "t_min = 0.0\nt_max = 13.0\nt_steps = 41\n")
    for name, (r, E_R, width, gamma, t_max) in PIN_WIDE.items():
        confs[name] = (f"E_R = {E_R}\nGamma = {width}\nr = {r}\n"
                       + "".join(f"gamma = {g}\n" for g in gamma)
                       + "psi = 1.0 1 1.0 0.0\nphi = 1.5 1 1.0 0.0\n"
                       + f"t_min = 0.0\nt_max = {t_max}\nt_steps = 11\n")
    return confs


def _pole_term_digest(runner, path) -> str:
    """sha256 of the exit code, stderr and stdout of pole-term on path."""
    result = runner.invoke(main, ["pole-term", "--config", str(path)])
    text = f"{result.exit_code}\n{result.stderr}\n{result.stdout}"
    return hashlib.sha256(text.encode()).hexdigest()


# recorded from the exact build of Q and the rational Horner reading of
# its ratios
POLE_TERM_SHA256 = {
    "pole_term_r1.conf": "bf2ff2b55d898d53c0a5f3f965d43a6996bc90db21e40c9083941a4e7f8bb054",
    "pole_term_r2.conf": "9975c186eefdade8fa0e8efe6c0d0f3e8e639cf7d487e33242ba5361a993a6ed",
    "r1-flat": "c45c0683569aa6afa1de09436da145fb5fea147ce0887a0da7de0569faf07ead",
    "r1-linear": "9149e9da392385f15300dba1af611ba6e5e68294d88cdeba726fe4707dfd68c8",
    "r1-quadratic": "5d282c42479641cf6e22652104d8ec7f93910dfc85a2f8df9e3bdd1182e31d2b",
    "r1-cubic": "c9993355488b3c2a258cd318aa2163154f5aed48a7bf5a0013514a7b1d4660bf",
    "r2-flat": "9831c67ce5f270d1b14c202a47ba50deb2c9582d41bf680885a13d4c837427e9",
    "r2-linear": "c235f084dce2a813f1315277dde1347ff69062a2d2d768359b4ad41ba8175071",
    "r2-quadratic": "5d48c70f25678ddf7605596a6244c0268f0e012077c74c70322594c44db3d6c1",
    "r2-cubic": "0c3777ae0c66c9e66f9da3b74573febe84a1c1bda67ab0dd903f2ff0fb4cb1ae",
    "r3-flat": "7d5d43ff19c0d3a432fb765a3e1114c80a84a2365fe75651091ee1a6c2d5ab81",
    "r3-linear": "94b61995069197420e8d8137c81fe24da50f889c3669aa54ca84130e1b1cdaf6",
    "r3-quadratic": "00e6887a118635c3d7bb11e77a98b1d4f65981a0ed07db7888fdce7db232c1ef",
    "r3-cubic": "ed967fcb10293f5a8a195febd82bae737a6651ab529234ccf83edecd9973da51",
    "r4-flat": "41a6f98553907f475bba8f2b9bd6c42ef01be8018b5bfc9f561729761ab42735",
    "r4-linear": "47854ce47234b0c2b43f7c79d4e3c47f3517b5207d0240208c38d80ee241c057",
    "r4-quadratic": "cd556914a164c58bfce8ba32644216861f492580f481b5074d5dc462e1522ef6",
    "r4-cubic": "f043d752e4eeb4ff45790eb9cb7f757514285bd490e61a04f8ba7368d2e7aeb3",
    "r5-flat": "abf217a6520a0a843658723eb5ab1dfd1c7331e6104883360aaec0e3bbbe3a71",
    "r5-linear": "4c8503d86b7e95c61f78a69ab951d6fc95a47acd7633e0fab87d23b2f801ba5d",
    "r5-quadratic": "ca81de3c4537f8c1e933a657c12620f7e4f9a0f5dee75756aeaeeaf580e29367",
    "r5-cubic": "09ead423678325777b5e42011362ab2e74a8cc641e5ffdcce32dd12de70e5856",
    "r6-flat": "9e976c93a3ffa0b8ec88179cfaec73cba2e127ed24c6de1d885ac26294b1885e",
    "r6-linear": "9c347027fb0a4489bc7ffe243d86c040512a10cf2880b2562856b45b3e53111a",
    "r6-quadratic": "fd3c6e13ad250de41f0fa3970f6c54964d37a2015abfca0f64e1ef17a96ace02",
    "r6-cubic": "9e18195516dd9d39de0dac06241e65b99312868c23bba481529763e3f34ba180",
    "r7-flat": "9b120aa0a79903f7d83317f47dcaaa843e948f5658759fa3aefacd0bc47def8d",
    "r7-linear": "958e69b71c6620e42e7c59e234eb8710096ce773c1da0ee048afcbfa5372fb27",
    "r7-quadratic": "71095aae114e17b2646131ac43310d8371ffec5c6f049399028ffe3412b3433f",
    "r7-cubic": "d383df81233ec45175ec2d3ee8f16d9da4e5f65ca5c6f1bf816de46cf5d33d51",
    "r8-flat": "a29de515d3767066264b819c19d509e20b37c854d9f42a7425e0709be84e1961",
    "r8-linear": "5252764296a85abb5ec0bab90b81e8f5b78b67fb2c7fd457ba2cb852e38dd0f9",
    "r8-quadratic": "9b203b68c6f0b1150f45ffa3b1c5c75bff70d0e2a126106234825a11934496d1",
    "r8-cubic": "d5be9758fe6392ffe48ef37588ab3ac8a2ee34f5d4f7d71613413e36f280af4a",
    "r32-narrow": "4efd85cc271fb9f41fe0353c577de56c8732dbbf196c6be05767de79c65ed5e2",
    "r32-tiny-width": "408a5dbc06a931ab7c7daf345bd58044d61729a6c2a803c031a3a97ce0ba7849",
    "r32-wide": "0742f9ffdbb6fe61db9c1a83ff4c1d4e8bd89dd3a07dea124ed91b7c1d3e18d2",
    "r32-quadratic": "3e1e923d4a58837db018dc9c2f940f46cfcf074bf2c25b88ed3839d2de083500",
    "r16-underflow": "99c6d7d793dd8d5a11eca5f76492307a9ffe8a88d9f305bfa9e530a05fd56f8d",
    "r12-subnormal-width": "99c6d7d793dd8d5a11eca5f76492307a9ffe8a88d9f305bfa9e530a05fd56f8d",
    "r20-overflow": "468a685dc1e55abdd290b743c97e5ba0dff8bef78df13f641ed9115b52f0cec9",
    "r8-overflow": "810f74afb4eccd19c144babc52fc557b3d8bd1159a1d4af22a47e8b1582ed2dd",
    "r8-far": "99c6d7d793dd8d5a11eca5f76492307a9ffe8a88d9f305bfa9e530a05fd56f8d",
}


class TestPoleTermBytes:
    @pytest.mark.parametrize("name", sorted(POLE_TERM_SHA256))
    def test_pole_term_bytes_are_pinned(self, runner, tmp_path, name):
        path = tmp_path / "pin.conf"
        path.write_text(_pin_configs()[name])
        assert _pole_term_digest(runner, path) == POLE_TERM_SHA256[name]


# decay-curve configs whose output bytes are pinned: both normalizations at
# orders up to the cap of r, and widths from 1e-300 to 1e300 with times up
# to 1e30, several of which end in an overflow exit; each is run as float
# and --exact, in CSV and in JSON, on a short grid
DECAY_PIN_ORDERS = (1, 2, 3, 5, 8, 13, 21, R_CAP)
DECAY_PIN_WIDE = {
    f"r{r}-G{width}-t{t_max}": (r, width, t_max)
    for r in (1, 6, R_CAP) for width in ("1e-300", "1e-30", "1e30", "1e300")
    for t_max in ("10.0", "1e30")
}
DECAY_PIN_MODES = (["--exact"], [], ["--format", "json"], ["--format", "json", "--exact"])


def _decay_pin_configs() -> dict:
    """name -> config text of every pinned decay-curve run."""
    confs = {}
    for normalization in ("derivative", "factorial"):
        cases = {f"r{r}": (r, "0.9137", "300.0") for r in DECAY_PIN_ORDERS} | DECAY_PIN_WIDE
        for name, (r, width, t_max) in cases.items():
            steps = 6 if width == "0.9137" else 4
            confs[f"{name}-{normalization}"] = (
                f"E_R = 2.0\nGamma = {width}\nr = {r}\nnormalization = {normalization}\n"
                f"t_min = 0.0\nt_max = {t_max}\nt_steps = {steps}\n")
    return confs


def _decay_curve_digest(runner, path) -> str:
    """sha256 of the exit code, stderr and stdout of decay-curve on path,
    run in each of DECAY_PIN_MODES in turn."""
    text = ""
    for mode in DECAY_PIN_MODES:
        result = runner.invoke(main, ["decay-curve", "--config", str(path), *mode])
        text += f"{result.exit_code}\n{result.stderr}\n{result.stdout}\n"
    return hashlib.sha256(text.encode()).hexdigest()


# recorded from decay_table conjugating every W(n), w_total and each dyad
# of more than one entry on its own
DECAY_CURVE_SHA256 = {
    "r1-G1e-30-t10.0-derivative": "0557c430dd9d7dc64cb867a3453d148e7008f58bd21e070bfb890349433b0c4e",
    "r1-G1e-30-t10.0-factorial": "0557c430dd9d7dc64cb867a3453d148e7008f58bd21e070bfb890349433b0c4e",
    "r1-G1e-30-t1e30-derivative": "9dd0d19b6a2f92d0b524a7a373ed6d215912452060d8a211036610782ce6bffc",
    "r1-G1e-30-t1e30-factorial": "9dd0d19b6a2f92d0b524a7a373ed6d215912452060d8a211036610782ce6bffc",
    "r1-G1e-300-t10.0-derivative": "1c63f2072bfe166bdc169cec8cc2a2fd83f3b510be0b75294c464c7cabeaefc5",
    "r1-G1e-300-t10.0-factorial": "1c63f2072bfe166bdc169cec8cc2a2fd83f3b510be0b75294c464c7cabeaefc5",
    "r1-G1e-300-t1e30-derivative": "3eca079a5d64c3cc92701c61bb3759e94403edc79b82d5819dd58d62ff1eeb6d",
    "r1-G1e-300-t1e30-factorial": "3eca079a5d64c3cc92701c61bb3759e94403edc79b82d5819dd58d62ff1eeb6d",
    "r1-G1e30-t10.0-derivative": "155ee2e9479f7020cd780c215a3ed8d2c05fb50b65864373540ea6e0384e1e00",
    "r1-G1e30-t10.0-factorial": "155ee2e9479f7020cd780c215a3ed8d2c05fb50b65864373540ea6e0384e1e00",
    "r1-G1e30-t1e30-derivative": "9d9fca04000359a8682ce62adc866b93f41933df7f5eaa7aa66272496ab96ee3",
    "r1-G1e30-t1e30-factorial": "9d9fca04000359a8682ce62adc866b93f41933df7f5eaa7aa66272496ab96ee3",
    "r1-G1e300-t10.0-derivative": "4b5bc7c02906acfc1df2f734f877c22e61859ac6210159357a8528019600c46b",
    "r1-G1e300-t10.0-factorial": "4b5bc7c02906acfc1df2f734f877c22e61859ac6210159357a8528019600c46b",
    "r1-G1e300-t1e30-derivative": "a93c31cb07d61e20b1693dee6f62e369f87fa7cb2530bff06b6602c7fc2c5b6e",
    "r1-G1e300-t1e30-factorial": "a93c31cb07d61e20b1693dee6f62e369f87fa7cb2530bff06b6602c7fc2c5b6e",
    "r1-derivative": "9a1952630ece761522c8591dded3b5b40a644e1d39c868124db6b66a06069a83",
    "r1-factorial": "9a1952630ece761522c8591dded3b5b40a644e1d39c868124db6b66a06069a83",
    "r13-derivative": "d514afd84d2406161da089fe513a35dc8a4aa8d144a1188974ce7e5cd3b1cfa4",
    "r13-factorial": "b483689124556fd2f9c6919547814bf868de17cbf0d7fd98612dcc178782db29",
    "r2-derivative": "08024a898c6cfb0fb107e8246d52c8284e69b8bc2aca2b671c7301360c2f7710",
    "r2-factorial": "08024a898c6cfb0fb107e8246d52c8284e69b8bc2aca2b671c7301360c2f7710",
    "r21-derivative": "c433fd37c9c7578f257174c766f7067da0a32dc74588ab022edeaa193012b155",
    "r21-factorial": "064b0c0e053a0fbee6080393a1422e39cdc2756273d6c9bcd3a315ee0a4db6a9",
    "r3-derivative": "f156f2b2056146b1daf2abd2c4f4b0fb05bd4d477eaf8b64581091e44f4dbcef",
    "r3-factorial": "421285ee825a0dd6918a24aff80c80fccda650d3e18f28902fca9b36b5272dec",
    "r32-G1e-30-t10.0-derivative": "0ec1551fc080ddbb2164bfd09122fddcd66cb9cd41ba4e1d52dc94a19d62b5e5",
    "r32-G1e-30-t10.0-factorial": "7a304683921d984fc2aa5ad13b6d667d052d56c89d01a4def4e72aeb6c001c85",
    "r32-G1e-30-t1e30-derivative": "fb105a5b96d394ad8f535b738d9b7948d43c3aaf78d88edf9aa2ac72832378ae",
    "r32-G1e-30-t1e30-factorial": "fb105a5b96d394ad8f535b738d9b7948d43c3aaf78d88edf9aa2ac72832378ae",
    "r32-G1e-300-t10.0-derivative": "aeadae887df7fcc04ecc6db215d33d9f593da246716a141957cf02e54dda6ba4",
    "r32-G1e-300-t10.0-factorial": "14345e6c7aa35b2e2de00e15e34cda04d3965c06115bdf290a344037ddfa2185",
    "r32-G1e-300-t1e30-derivative": "fb105a5b96d394ad8f535b738d9b7948d43c3aaf78d88edf9aa2ac72832378ae",
    "r32-G1e-300-t1e30-factorial": "fb105a5b96d394ad8f535b738d9b7948d43c3aaf78d88edf9aa2ac72832378ae",
    "r32-G1e30-t10.0-derivative": "4157a386f298f9cae7b8d013a8ea0602b5acdff762c90b73a6d6cb4b77a0ed32",
    "r32-G1e30-t10.0-factorial": "4157a386f298f9cae7b8d013a8ea0602b5acdff762c90b73a6d6cb4b77a0ed32",
    "r32-G1e30-t1e30-derivative": "4157a386f298f9cae7b8d013a8ea0602b5acdff762c90b73a6d6cb4b77a0ed32",
    "r32-G1e30-t1e30-factorial": "4157a386f298f9cae7b8d013a8ea0602b5acdff762c90b73a6d6cb4b77a0ed32",
    "r32-G1e300-t10.0-derivative": "87516954379c9be628ccad4a83ecb3bdda49eeb3a6000b197e28d7718e8b29a7",
    "r32-G1e300-t10.0-factorial": "87516954379c9be628ccad4a83ecb3bdda49eeb3a6000b197e28d7718e8b29a7",
    "r32-G1e300-t1e30-derivative": "87516954379c9be628ccad4a83ecb3bdda49eeb3a6000b197e28d7718e8b29a7",
    "r32-G1e300-t1e30-factorial": "87516954379c9be628ccad4a83ecb3bdda49eeb3a6000b197e28d7718e8b29a7",
    "r32-derivative": "f06a19870e7049ae0af824edafe974950b118804685a42529f547c3537b1296a",
    "r32-factorial": "d5f1e967cf107a314d08c290f0560af249e889c74eb5df592ed6a99e660a5d8d",
    "r5-derivative": "b08abbe215f63117c35f40ee0198df2d3eba4f92458f88be13c3ef81fb87c6ee",
    "r5-factorial": "6bc5a0f36af0a91c386f05ff325c2dca171beb2eb9325445e92638781322760b",
    "r6-G1e-30-t10.0-derivative": "bec764f5c5972d456a3f867283f012bf46ec539d7c811f7851214f2e9fc37bd6",
    "r6-G1e-30-t10.0-factorial": "d4049cda597f5becb9d678b4b664f3be791dde3d0b80b85acae81ea2ea84d922",
    "r6-G1e-30-t1e30-derivative": "72bc243ff2be6c9702957dab069868502297b37b3290108019493e68805e4307",
    "r6-G1e-30-t1e30-factorial": "aae3435afd022eea7ff3e79b9231848ca7d9c6af6be109e43c39ef93bf744677",
    "r6-G1e-300-t10.0-derivative": "08de2e0f1378db35759df8d9be47efd9ec996ad928181408eeba47edd8cc99d2",
    "r6-G1e-300-t10.0-factorial": "f4c46b22272ce02399b8f969f3210bf131f9056e4a31a75605a32abacf4f22cb",
    "r6-G1e-300-t1e30-derivative": "da1334c7921e218e83ae3a657d3724e2004c6e6a8299e050c0c513de055f8f79",
    "r6-G1e-300-t1e30-factorial": "568aa11c83f8a2631ea6df7a26470526dee1a432bd4ed0ca2c652e8eb2aad622",
    "r6-G1e30-t10.0-derivative": "2d34f1e683051068bc520e4bae4cebc2ccb2722390ed6d93e087b0ba12a13e2a",
    "r6-G1e30-t10.0-factorial": "874f9c0fb13e335ad934f5bd189e45a7ede9a4d1401547c950db549311fabbf4",
    "r6-G1e30-t1e30-derivative": "1493b00fd4465d58eef79e98265a5c31b54df7e525ee82e2016f282283203971",
    "r6-G1e30-t1e30-factorial": "51c1c228e6a926b20eb7d5eae25ffeca20fe4dd7677ba0349dc3130baf94c0e7",
    "r6-G1e300-t10.0-derivative": "87516954379c9be628ccad4a83ecb3bdda49eeb3a6000b197e28d7718e8b29a7",
    "r6-G1e300-t10.0-factorial": "87516954379c9be628ccad4a83ecb3bdda49eeb3a6000b197e28d7718e8b29a7",
    "r6-G1e300-t1e30-derivative": "87516954379c9be628ccad4a83ecb3bdda49eeb3a6000b197e28d7718e8b29a7",
    "r6-G1e300-t1e30-factorial": "87516954379c9be628ccad4a83ecb3bdda49eeb3a6000b197e28d7718e8b29a7",
    "r8-derivative": "366e3fc11d94573d7c95404bf7e0b73045ca83f3c08d434930f7e323980bdf7c",
    "r8-factorial": "ccc22dda7d4ef422fbf95db3e3c0bd0acf16583e63349308a2fdaa5a4284b28f",
}


class TestDecayCurveBytes:
    @pytest.mark.parametrize("name", sorted(DECAY_CURVE_SHA256))
    def test_decay_curve_bytes_are_pinned(self, runner, tmp_path, name):
        path = tmp_path / "pin.conf"
        path.write_text(_decay_pin_configs()[name])
        assert _decay_curve_digest(runner, path) == DECAY_CURVE_SHA256[name]

    def test_every_config_is_pinned(self):
        assert set(DECAY_CURVE_SHA256) == set(_decay_pin_configs())


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, runner, tmp_path):
        conf = tmp_path / "d.conf"
        conf.write_text(DECAY_CONF)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert runner.invoke(
            main, ["decay-curve", "--config", str(conf), "--out", str(first)]
        ).exit_code == 0
        assert runner.invoke(
            main, ["decay-curve", "--config", str(conf), "--out", str(second)]
        ).exit_code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_stdout_matches_file_output(self, runner, tmp_path):
        conf = tmp_path / "d.conf"
        conf.write_text(DECAY_CONF)
        out = tmp_path / "a.csv"
        piped = runner.invoke(main, ["decay-curve", "--config", str(conf)])
        runner.invoke(main, ["decay-curve", "--config", str(conf), "--out", str(out)])
        assert piped.output == out.read_text()

    def test_exact_fallback_alone_prints_the_same_bytes(self, runner, tmp_path, monkeypatch):
        # the jet is built in p-bit balls, and the ratios are read off them
        # wherever that decides their rounding, else off the exact Q;
        # sending every ratio through each ball build to the exact value,
        # and then also building the exact Q alone, changes no byte
        confs = []
        for name in ("pole_term_r1.conf", "pole_term_r2.conf"):
            text = (CONFIGS / name).read_text()
            for r in range(1, 9):
                conf = tmp_path / f"r{r}_{name}"
                conf.write_text(re.sub(r"^r = \d+$", f"r = {r}", text, flags=re.M))
                confs.append(conf)
        normal = [runner.invoke(main, ["pole-term", "--config", str(conf)]) for conf in confs]
        assert all(result.exit_code == 0 for result in normal)
        undecided = []

        def never_decided(*ends):
            undecided.append(ends)

        monkeypatch.setattr(algebra, "_rounded_between", never_decided)
        forced = [runner.invoke(main, ["pole-term", "--config", str(conf)]) for conf in confs]
        assert len(undecided) == len(smatrix._PRECISIONS) * 2 * 8 * 11
        assert [result.output for result in forced] == [result.output for result in normal]
        undecided.clear()
        monkeypatch.setattr(smatrix, "_PRECISIONS", ())
        forced = [runner.invoke(main, ["pole-term", "--config", str(conf)]) for conf in confs]
        assert len(undecided) == 0
        assert [result.output for result in forced] == [result.output for result in normal]

    @pytest.mark.parametrize("command,config,golden", SHIPPED)
    def test_shipped_configs_reproduce_golden_files(
        self, runner, tmp_path, command, config, golden
    ):
        out = tmp_path / golden
        result = runner.invoke(
            main, [command, "--config", str(CONFIGS / config), "--out", str(out)]
        )
        assert result.exit_code == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("command,config,golden", SHIPPED)
    def test_config_with_a_byte_order_mark_reproduces_its_golden(
        self, runner, tmp_path, command, config, golden
    ):
        # Windows Notepad starts a UTF-8 file with a byte-order mark, which
        # must not become part of the first key
        conf, out = tmp_path / config, tmp_path / golden
        conf.write_bytes(b"\xef\xbb\xbf" + (CONFIGS / config).read_bytes())
        result = runner.invoke(main, [command, "--config", str(conf), "--out", str(out)])
        assert (result.exit_code, result.stderr) == (0, "")
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("config", ["decay_r3.conf", "r12"])
    def test_decay_curve_bytes_do_not_depend_on_blas_kernel(self, tmp_path, config):
        # OpenBLAS built with DYNAMIC_ARCH picks its kernel at run time, and
        # the kernels round differently; the variable is ignored elsewhere
        if config == "r12":
            path = tmp_path / "r12.conf"
            path.write_text(
                DECAY_CONF.replace("r = 2", "r = 12").replace("t_steps = 5", "t_steps = 41")
            )
        else:
            path = CONFIGS / config
        outputs = set()
        for coretype in ("SkylakeX", "Haswell", "Sandybridge", "Nehalem"):
            done = _run_strict(
                "decay-curve", "--config", str(path), env_extra={"OPENBLAS_CORETYPE": coretype}
            )
            assert done.returncode == 0
            outputs.add(done.stdout)
        assert len(outputs) == 1


def _reference_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
                               1.7976931348623157e308, -1.7976931348623157e308])
json_floats = st.floats(allow_nan=False, allow_infinity=False) | edge_floats
# quotes, backslashes, control characters, non-ASCII and '%', which the row
# template must not read as a format
json_texts = st.text(max_size=6) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é€😀", "%r", "%%"])
json_leaves = st.one_of(json_floats, st.integers(), st.integers(-(2**70), 2**70), st.booleans(),
                        st.none(), json_texts)


@st.composite
def float_rows(draw, values=json_floats):
    """A list of dicts with the same keys, every value from values; then
    maybe one row with a key more or less, or one value an int or a bool."""
    keys = draw(st.lists(json_texts, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({k: values for k in keys}), min_size=1, max_size=5))
    spoil = draw(st.sampled_from(["none", "extra key", "missing key", "int", "bool"]))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    key = draw(st.sampled_from(keys))
    if spoil == "extra key":
        row[draw(json_texts)] = draw(values)
    elif spoil == "missing key":
        del row[key]
    elif spoil in ("int", "bool"):
        row[key] = draw(st.integers() if spoil == "int" else st.booleans())
    return rows


def json_payloads(depth: int):
    """Nested dicts and lists, empty ones included, at most depth levels deep."""
    runs = [st.lists(json_floats), st.lists(json_texts), st.lists(json_floats | st.integers()),
            float_rows()]
    if depth == 0:
        return st.one_of(json_leaves, *runs)
    inner = json_payloads(depth - 1)
    return st.one_of(json_leaves, *runs, st.lists(inner, max_size=3),
                     st.dictionaries(json_texts, inner, max_size=3))


non_finite = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def poisoned_payloads(draw, depth: int = 4):
    """A payload with one inf or nan at a depth of at most depth: a leaf,
    an item of a float list, or a value of a float row."""
    bad = draw(non_finite)
    here = draw(st.sampled_from(["leaf", "float list", "float row"]))
    if here == "float list":
        value = draw(st.lists(json_floats, max_size=4))
        value.insert(draw(st.integers(0, len(value))), bad)
    elif here == "float row":
        value = draw(st.lists(st.fixed_dictionaries({"re": json_floats, "im": json_floats}),
                              min_size=1, max_size=4))
        draw(st.sampled_from(value))[draw(st.sampled_from(["re", "im"]))] = bad
    else:
        value = bad
    for _ in range(draw(st.integers(0, depth - 1))):
        if draw(st.booleans()):
            siblings = draw(st.lists(json_payloads(1), max_size=3))
            siblings.insert(draw(st.integers(0, len(siblings))), value)
            value = siblings
        else:
            value = {**draw(st.dictionaries(json_texts, json_payloads(1), max_size=3)),
                     draw(json_texts): value}
    return value


class TestJsonWriter:
    """The one JSON writer prints json.dumps(indent=2, sort_keys=True,
    allow_nan=False) byte for byte."""

    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(payload=json_payloads(4))
    @example(payload={"a%s": [{"x": -0.0, "y": 5e-324}, {"x": 1.7976931348623157e308, "y": 1.0}]})
    @example(payload=[[], {}, [{}], {"k": []}])
    @example(payload=[{"re": 1.0, "im": 2.0}, {"re": 1.0, "im": True}])
    @example(payload=[{"re": 1.0, "im": 2.0}, {"re": 1.0, "imag": 2.0}])
    @example(payload=[1, 2.0, -0.0, True, None])
    def test_the_bytes_of_json_dumps(self, payload):
        assert _json_text(payload) == _reference_json(payload)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(payload=poisoned_payloads())
    @example(payload={"a": {"b": {"c": [[math.nan]]}}})
    @example(payload=[{"t": 0.0, "ratio": math.inf}])
    def test_inf_or_nan_at_any_depth_is_the_named_overflow(self, payload):
        with pytest.raises(ValueError):
            _reference_json(payload)
        with pytest.raises(OverflowError, match="^a value of the output is not a finite float$"):
            _json_text(payload)

    @pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.glob("*.json")))
    def test_goldens_are_their_own_json_text(self, golden):
        text = (GOLDEN / golden).read_text()
        assert _json_text(json.loads(text)) == text


def _reference_csv(header, columns) -> str:
    # one %.17g template per row: the reference the column-wise writer must match
    template = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)] + [template % row for row in zip(*columns)]
    return "\n".join(lines) + "\n"


class TestCsvWriter:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        rows=st.integers(1, 6),
        pool=st.lists(st.lists(json_floats, min_size=6, max_size=6), min_size=1, max_size=4),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=8),
    )
    @example(rows=2, pool=[[0.0, -0.0] * 3, [-0.0, 0.0] * 3], picks=[0, 1, 0, 1])
    def test_shared_columns_print_as_rows_did(self, rows, pool, picks):
        # a column object may appear several times (decay_table shares
        # them); 0.0 and -0.0 are equal but print apart, so sharing goes
        # by identity
        columns = [column[:rows] for column in pool]
        chosen = [columns[i % len(columns)] for i in picks]
        header = [f"c{i}" for i in range(len(chosen))]
        copies = [list(column) for column in chosen]
        assert _csv_text(header, chosen) == _reference_csv(header, chosen)
        assert _csv_text(header, copies) == _reference_csv(header, chosen)


def _decay_oracle_problems(config_text: str, table_text: str) -> list:
    """Fields of a derivative-normalized decay-curve table that miss their
    closed forms, evaluated in mpmath at 40 digits.

    W(n) has Frobenius norm Gamma**n/n! sqrt(binom(2n, n)) and decays as
    exp(-Gamma t); the weighted sum adds disjoint anti-diagonals, scaled by
    2 pi Gamma; the dyad |k><k| has norm exp(-Gamma t) s_k(t) with
    s_k(t) = sum_p binom(k, p)**2 t**(2(k-p)), so its deviation is s_k - 1.
    Norms must lie within 2 ulp, family deviations must be exactly 0, dyad
    deviations within 1e-15 relative (exactly 0 where s_k - 1 is).
    """
    cfg = parse_config_text(config_text)
    assert cfg.get("normalization", ["derivative"]) == ["derivative"]
    rows = list(csv.reader(io.StringIO(table_text)))
    header, body = rows[0], rows[1:]
    problems = []
    with mpmath.workdps(40):
        G = mpmath.mpf(cfg["Gamma"][0])
        r = int(cfg["r"][0])
        fam0 = [G**n / factorial(n) * mpmath.sqrt(comb(2 * n, n)) for n in range(r)]
        wsum0 = 2 * mpmath.pi * G * mpmath.sqrt(
            sum(comb(r, n + 1) ** 2 * fam0[n] ** 2 for n in range(r))
        )
        for row in body:
            t = mpmath.mpf(float(row[0]))
            decay = mpmath.exp(-G * t)
            for name, field in zip(header[1:], row[1:]):
                value = mpmath.mpf(float(field))
                operator, column = name.split("_", 1)
                if operator.startswith("dyad"):
                    k = int(operator[4:])
                    s_k = sum(comb(k, p) ** 2 * t ** (2 * (k - p)) for p in range(k + 1))
                    want = {"norm": decay * s_k, "deviation": s_k - 1}[column]
                elif operator == "wsum":
                    want = 0 if column == "deviation" else wsum0 * decay
                else:
                    want = 0 if column == "deviation" else fam0[int(operator[1:])] * decay
                if column != "deviation":
                    ok = abs(value - want) <= 2 * math.ulp(float(want))
                elif want == 0:
                    ok = value == 0
                else:
                    ok = abs(value - want) <= 1e-15 * abs(want)
                if not ok:
                    problems.append(f"{name} at t = {row[0]}: {field}")
    return problems


# perfbench decay-float seed 7, r = 4: at t = 0.06 a dyad deviation taken
# as sqrt(N(t)) - sqrt(N(0)) cancels to 13 digits
SEED7_DECAY_CONF = """\
E_R = 2.0
Gamma = 0.9951405576480736
r = 4
t_min = 0.0
t_max = 0.06
t_steps = 2
"""


class TestDecayGoldenOracle:
    @pytest.mark.parametrize("name", ["decay_r1", "decay_r3", "seed7"])
    def test_golden_decay_tables_match_closed_forms(self, runner, tmp_path, name):
        if name == "seed7":
            config = SEED7_DECAY_CONF
            path = tmp_path / "seed7.conf"
            path.write_text(config)
            table = runner.invoke(main, ["decay-curve", "--config", str(path)]).output
        else:
            config = (CONFIGS / f"{name}.conf").read_text()
            table = (GOLDEN / f"{name}.csv").read_text()
        assert _decay_oracle_problems(config, table) == []

    def test_oracle_rejects_three_ulp_and_nonzero_family_deviation(self):
        config = (CONFIGS / "decay_r3.conf").read_text()
        lines = (GOLDEN / "decay_r3.csv").read_text().splitlines(keepends=True)
        header = lines[0].rstrip("\n").split(",")
        fields = lines[3].rstrip("\n").split(",")
        norm = header.index("w1_norm")
        fields[norm] = repr(float(fields[norm]) + 3 * math.ulp(float(fields[norm])))
        fields[header.index("wsum_deviation")] = "1.4395355551543812e-16"
        lines[3] = ",".join(fields) + "\n"
        problems = _decay_oracle_problems(config, "".join(lines))
        assert [p.split(" ")[0] for p in problems] == ["w1_norm", "wsum_deviation"]


def _pole_fields(config_text: str, payload: dict, dps: int = 40) -> list:
    """(name, printed value, oracle value) for every number of a pole-term
    payload, the oracle from exact Taylor series at the pole in mpmath at
    dps digits.

    Each test-function term c / (w - i a)**m has Taylor coefficients
    c (-1)**k binom(m+k-1, k) (z - i a)**(-m-k); the phase exp(2i gamma)
    follows from the Taylor coefficients g of 2i gamma at z by e' = g' e;
    the pole term is sum_n binom(r, n+1) (-i Gamma)**(n+1) (-2 pi i) times
    the n-th coefficient of the product of the legs; translating the
    observable by t multiplies its leg by exp(-i w t).
    """
    cfg = parse_config_text(config_text)
    r = int(cfg["r"][0])
    with mpmath.workdps(dps):
        G = mpmath.mpf(float(cfg["Gamma"][0]))
        z = mpmath.mpc(float(cfg["E_R"][0]), -G / 2)

        def times(a, b):
            return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(r)]

        def rational(key):
            out = [mpmath.mpc(0)] * r
            for chunk in cfg[key]:
                a, m, c_re, c_im = chunk.split()
                base, m = z - 1j * mpmath.mpf(float(a)), int(m)
                c = mpmath.mpc(float(c_re), float(c_im))
                for k in range(r):
                    out[k] += c * (-1) ** k * comb(m + k - 1, k) * base ** (-m - k)
            return out

        psi, phi = rational("psi"), rational("phi")
        if cfg.get("absorb_gauge", ["true"]) == ["true"]:
            gamma = [mpmath.mpf(float(c)) for c in cfg.get("gamma", ["0"])]
            g = [
                2j * sum(c * comb(i, k) * z ** (i - k) for i, c in enumerate(gamma) if i >= k)
                for k in range(r)
            ]
            e = [mpmath.exp(g[0])]
            for k in range(1, r):
                e.append(sum(j * g[j] * e[k - j] for j in range(1, k + 1)) / k)
            psi = times(psi, e)

        def pole_sum(observable):
            both = times(observable, phi)
            return sum(
                comb(r, n + 1) * (-1j * G) ** (n + 1) * -2j * mpmath.pi * both[n] for n in range(r)
            )

        def probability(t):
            shift = [mpmath.exp(-1j * z * t) * (-1j * t) ** k / factorial(k) for k in range(r)]
            return abs(pole_sum(times(psi, shift))) ** 2

        value = payload["pole_term"]
        fields = [("pole_term", complex(value["re"], value["im"]), pole_sum(psi))]
        for k, got in enumerate(payload["expansion_coeffs"]):
            want = sum(comb(r, n + 1) * (-1j * G) ** n * phi[n - k] for n in range(k, r))
            fields.append(
                (f"expansion_coeffs[{k}]", complex(got["re"], got["im"]),
                 -2 * mpmath.pi * G / factorial(k) * want)
            )
        p0 = probability(0)
        fields.append(("probability_at_zero", payload["probability_at_zero"], p0))
        for row in payload["ratio_table"]:
            t = mpmath.mpf(row["t"])
            fields.append((f"ratio at t = {row['t']}", row["ratio"], probability(t) / p0))
            fields.append(
                (f"exponential_reference at t = {row['t']}", row["exponential_reference"],
                 mpmath.exp(-G * t))
            )
    return fields


def _pole_golden_problems(config_text: str, payload_text: str) -> list:
    """Fields of a pole-term payload off their oracle by more than 1 ulp
    (ratios and exponential references) or 2 ulp (each part of the pole
    term and the coefficients, and the probability)."""
    problems = []
    for name, got, want in _pole_fields(config_text, json.loads(payload_text)):
        budget = 1 if name.startswith(("ratio", "exponential")) else 2
        got, want = complex(got), mpmath.mpc(want)
        for value, target in ((got.real, want.real), (got.imag, want.imag)):
            with mpmath.workdps(40):
                error = abs(value - target)
            if error > budget * math.ulp(float(target)):
                problems.append(f"{name}: {value!r}")
    return problems


def _steep_phase_config(r: int) -> str:
    """Pole-term config at E_R = 2, Gamma = 1 whose phase gamma has the
    Taylor coefficients 0.3, 8, 30, 120 in w - E_R."""
    coeffs = [0.0] * 4
    for k, s in enumerate((0.3, 8.0, 30.0, 120.0)):
        for i in range(k + 1):
            coeffs[i] += s * comb(k, i) * (-2.0) ** (k - i)
    return (
        f"E_R = 2.0\nGamma = 1.0\nr = {r}\n"
        + "".join(f"gamma = {c!r}\n" for c in coeffs)
        + "psi = 1.0 1 1.0 0.0\npsi = 2.0 2 0.0 0.5\nphi = 1.5 3 1.0 -0.25\n"
        + "t_min = 0\nt_max = 10\nt_steps = 11\n"
    )


class TestPoleTermOracle:
    @pytest.mark.parametrize("name", ["pole_term_r1", "pole_term_r2"])
    def test_golden_pole_terms_match_taylor_series(self, name):
        config = (CONFIGS / f"{name}.conf").read_text()
        assert _pole_golden_problems(config, (GOLDEN / f"{name}.json").read_text()) == []

    @pytest.mark.parametrize(
        "name,field,old",
        [
            # values of the goldens that the contour quadrature wrote
            ("pole_term_r1", ("pole_term", "re"), 0.09018720219476623),
            ("pole_term_r2", ("ratio_table", 1, "ratio"), 0.08261400118437391),
        ],
    )
    def test_oracle_rejects_the_contour_goldens(self, name, field, old):
        config = (CONFIGS / f"{name}.conf").read_text()
        payload = json.loads((GOLDEN / f"{name}.json").read_text())
        *path, key = field
        target = payload
        for step in path:
            target = target[step]
        target[key] = old
        problems = _pole_golden_problems(config, json.dumps(payload))
        assert len(problems) == 1 and problems[0].endswith(repr(old))

    @pytest.mark.parametrize("r", [1, 4, 8])
    def test_steep_phase_matches_taylor_series(self, runner, tmp_path, r):
        # the contour at radius Gamma/4 gave -8.3, 0.4 and 3.7 digits here
        config = _steep_phase_config(r)
        conf = tmp_path / "p.conf"
        conf.write_text(config)
        result = runner.invoke(main, ["pole-term", "--config", str(conf)])
        assert result.exit_code == 0
        for name, got, want in _pole_fields(config, json.loads(result.output)):
            assert abs(got - want) <= 1e-9 * abs(want), name

    @pytest.mark.parametrize("cubic", ["30", "29.7"])
    def test_steep_cubic_phase_prints_finite_values(self, runner, tmp_path, cubic):
        # |exp(2i gamma(z))| = exp(11.75 cubic): at 30, exp(352.5) puts
        # probability_at_zero near 1.19e306; at 29.7 the argument 2i gamma(z)
        # is not a float, and rounding it first would cost 5e-14
        config = POLE_CONF + f"gamma = 0\ngamma = 0\ngamma = 0\ngamma = {cubic}\n"
        conf = tmp_path / "p.conf"
        conf.write_text(config)
        result = runner.invoke(main, ["pole-term", "--config", str(conf)])
        assert result.exit_code == 0
        for name, got, want in _pole_fields(config, json.loads(result.output)):
            assert abs(got - want) <= 1e-15 * abs(want), name

    @pytest.mark.parametrize("config", ["pole_term_r1.conf", "steep"])
    def test_simple_pole_ratio_is_the_exponential_reference(self, runner, tmp_path, config):
        conf = tmp_path / "p.conf"
        if config == "steep":
            conf.write_text(_steep_phase_config(1).replace("t_steps = 11", "t_steps = 101"))
        else:
            conf = CONFIGS / config
        result = runner.invoke(main, ["pole-term", "--config", str(conf)])
        assert result.exit_code == 0
        for row in json.loads(result.output)["ratio_table"]:
            assert row["ratio"] == row["exponential_reference"]

    def test_exp_factor_is_within_one_ulp(self, runner, tmp_path):
        # Gamma t is not a float here: exp of the rounded product was up to
        # 8 ulp off; w0 has norm 1, so its exp law is the bare factor
        grid = "Gamma = 0.9137\nr = 1\nt_min = 0\nt_max = 10\nt_steps = 101\n"
        decay = tmp_path / "d.conf"
        decay.write_text("E_R = 2.0\n" + grid)
        pole = tmp_path / "p.conf"
        pole.write_text(POLE_CONF.split("t_min")[0].replace("Gamma = 1.0\nr = 1\n", grid))
        table = json.loads(
            runner.invoke(main, ["decay-curve", "--config", str(decay), "--format", "json"]).output
        )
        column = table["columns"].index("w0_exp_law")
        fields = [(row[0], row[column]) for row in table["rows"]]
        payload = json.loads(runner.invoke(main, ["pole-term", "--config", str(pole)]).output)
        fields += [(row["t"], row["exponential_reference"]) for row in payload["ratio_table"]]
        assert len(fields) == 202
        with mpmath.workdps(40):
            for t, got in fields:
                want = mpmath.exp(-mpmath.mpf(0.9137) * mpmath.mpf(t))
                assert abs(got - want) <= math.ulp(float(want)), t
