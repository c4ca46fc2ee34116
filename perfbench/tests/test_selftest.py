"""Self-test of the benchmark: every workload at its smallest size, and
proof that the output checks catch a corrupted output.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SMALLEST = {
    "FLOAT_ORDERS": (1, 2),
    "EXACT_ORDERS": (1, 2),
    "LADDER_TOP": 2,
    "LADDER_PROBE": 3,
    "POLE_ORDERS": (1, 2),
}


@pytest.fixture
def smallest(monkeypatch):
    for name, value in SMALLEST.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.chdir(REPO)


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _declared(section):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_declared_metrics_match_the_benchmark():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smallest_workload_runs_clean(smallest, capsys, workload, trace):
    result = _result(capsys, "--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(workloads.build(workload, 7).commands)
    units = run.PER_LAYER_UNITS if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _flip_leading_digit(text: str) -> str:
    """Change the leading digit of the first number on the last line that
    has one: the time of a CSV row, a ratio-table time, a report count."""
    lines = text.split("\n")
    row = max(i for i, line in enumerate(lines) if any(c.isdigit() for c in line))
    line = lines[row]
    col = next(i for i, c in enumerate(line) if c.isdigit())
    lines[row] = line[:col] + str((int(line[col]) + 1) % 10) + line[col + 1:]
    return "\n".join(lines)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_flipped_digit_counts_as_failure(smallest, workload, tmp_path, monkeypatch):
    import gamowkit.cli

    runner = run.Runner(REPO, gamowkit.cli.main, workloads.build(workload, 7), tmp_path)
    runner.passes(0)
    assert runner.failed == 0
    invoke = runner.invoke
    monkeypatch.setattr(runner, "invoke", lambda cmd: _corrupt(invoke(cmd)))
    runner.passes(0)
    commands = len(runner.workload.commands)
    assert runner.attempted == 2 * commands
    assert runner.failed == commands
    assert len(runner.breaches) == commands


def _corrupt(outcome):
    code, text, crash = outcome
    return code, _flip_leading_digit(text), crash


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "decay-float", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_calibration_samples_within_a_command_and_takes_the_kernel_out():
    import signal
    from time import perf_counter

    import calibration

    clock = calibration.Calibration()
    before = len(clock.kernels)

    def spin():
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
        return "done"

    result, wall, kernel = clock.timed(spin)
    assert result == "done"
    # the command spun for 0.3 s of wall time, kernel runs included
    assert wall < 0.3
    inside = len(clock.kernels) - before
    assert inside >= 3
    assert min(clock.kernels) <= kernel <= max(clock.kernels)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
