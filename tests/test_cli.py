"""Tests for the command line interface.

Covers config parsing, the exit-code contract, deterministic output and
the golden files generated from the shipped example configs, which are
themselves checked against mpmath closed forms.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from math import comb, factorial
from pathlib import Path

import mpmath
import pytest
from click.testing import CliRunner

from gamowkit.cli import J_CAP, main, parse_config_text
from gamowkit.errors import ConfigInvalidError

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = REPO / "tests" / "golden"

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

    @pytest.mark.parametrize(
        "text",
        [
            # Gamma**n underflows, so the norm at t = 0 is 0
            "E_R = 2.0\nGamma = 1e-300\nr = 40\nt_min = 0\nt_max = 1\nt_steps = 2\n",
        ],
        ids=["norm0"],
    )
    def test_underflow_maps_to_two(self, runner, tmp_path, text):
        conf = tmp_path / "tiny.conf"
        conf.write_text(text)
        result = runner.invoke(main, ["decay-curve", "--config", str(conf)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert len(result.output.splitlines()) == 1
        assert "numerical underflow" in result.output

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

    def test_underflowing_pole_term_maps_to_two(self, runner, tmp_path):
        # psi(z) phi(z) ~ 1e-600: exactly nonzero, 0 in floating point
        conf = tmp_path / "p.conf"
        conf.write_text(POLE_CONF.replace("E_R = 2.0", "E_R = 1e300"))
        result = runner.invoke(main, ["pole-term", "--config", str(conf)])
        assert result.exit_code == 2
        assert len(result.output.splitlines()) == 1
        assert "numerical underflow" in result.output

    def test_lineshape_peak_below_float_range_maps_to_two(self, tmp_path):
        # |E - z|**2 = Gamma**2 / 4 underflows at the grid point E = E_R
        conf = tmp_path / "l.conf"
        conf.write_text("E_R = 2.0\nGamma = 1e-300\nr = 1\ne_min = 1.0\ne_max = 3.0\ne_steps = 3\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gamowkit.cli"]
            + ["lineshape", "--config", str(conf)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.splitlines() == [
            "error: numerical underflow: |E - z|**2 is 0 in floating point on the grid"
        ]

    @pytest.mark.parametrize("pole", ["E_R = 1e308\nGamma = 0.5", "E_R = 2.0\nGamma = 5e-324"])
    def test_jordan_info_phase_beyond_float_range_maps_to_two(self, tmp_path, pole):
        # z t at the sample time t = 1/Gamma is not finite, so exp(-i z t)
        # has no float value; no RuntimeWarning may precede the error line
        conf = tmp_path / "j.conf"
        conf.write_text(f"{pole}\nr = 2\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gamowkit.cli"]
            + ["jordan-info", "--config", str(conf)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error: numerical overflow: ")

    def test_vanishing_pole_term_rejected(self, runner, tmp_path):
        conf = tmp_path / "p.conf"
        conf.write_text(
            "E_R = 2.0\nGamma = 1.0\nr = 1\npsi = 1.0 1 0.0 0.0\n"
            "phi = 1.5 1 1.0 0.0\nt_min = 0\nt_max = 1\nt_steps = 2\n"
        )
        result = runner.invoke(main, ["pole-term", "--config", str(conf)])
        assert result.exit_code == 1


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

    @pytest.mark.parametrize(
        "command,config,golden",
        [
            ("decay-curve", "decay_r1.conf", "decay_r1.csv"),
            ("decay-curve", "decay_r3.conf", "decay_r3.csv"),
            ("lineshape", "lineshape_r3.conf", "lineshape_r3.csv"),
            ("pole-term", "pole_term_r1.conf", "pole_term_r1.json"),
            ("pole-term", "pole_term_r2.conf", "pole_term_r2.json"),
            ("uniqueness", "uniqueness_j4.conf", "uniqueness_j4.json"),
            ("jordan-info", "decay_r3.conf", "jordan_info_r3.json"),
        ],
    )
    def test_shipped_configs_reproduce_golden_files(
        self, runner, tmp_path, command, config, golden
    ):
        out = tmp_path / golden
        result = runner.invoke(
            main, [command, "--config", str(CONFIGS / config), "--out", str(out)]
        )
        assert result.exit_code == 0
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
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        outputs = set()
        for coretype in ("SkylakeX", "Haswell", "Sandybridge", "Nehalem"):
            env["OPENBLAS_CORETYPE"] = coretype
            done = subprocess.run(
                [sys.executable, "-m", "gamowkit.cli", "decay-curve", "--config", str(path)],
                env=env,
                capture_output=True,
                check=True,
            )
            outputs.add(done.stdout)
        assert len(outputs) == 1


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


class TestDecayGoldenOracle:
    @pytest.mark.parametrize("name", ["decay_r1", "decay_r3"])
    def test_golden_decay_tables_match_closed_forms(self, name):
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


def _pole_fields(config_text: str, payload: dict) -> list:
    """(name, printed value, oracle value) for every number of a pole-term
    payload, the oracle from exact Taylor series at the pole in mpmath at
    40 digits.

    Each test-function term c / (w - i a)**m has Taylor coefficients
    c (-1)**k binom(m+k-1, k) (z - i a)**(-m-k); the phase exp(2i gamma)
    follows from the Taylor coefficients g of 2i gamma at z by e' = g' e;
    the pole term is sum_n binom(r, n+1) (-i Gamma)**(n+1) (-2 pi i) times
    the n-th coefficient of the product of the legs; translating the
    observable by t multiplies its leg by exp(-i w t).
    """
    cfg = parse_config_text(config_text)
    r = int(cfg["r"][0])
    with mpmath.workdps(40):
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
