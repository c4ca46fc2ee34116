"""gamowkit benchmark: seeded CLI workloads checked against independent oracles.

Run from the root of a gamowkit checkout:

    python3 perfbench/run.py --workload decay-float --seed 1 --seconds 25 --trace 0

One client drives the CLI in this process in a closed loop: each command
starts when the previous one has finished.  Passes over the workload's
command list repeat until --seconds have passed.  Every output is checked
against an oracle in oracles.py; a nonzero exit, a traceback or a failed
check counts as a failed command.  Times are calibrated against a fixed
kernel timed between commands (calibration.py), which takes out the
slowdown that other tenants of a shared host cause.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports per-layer metrics from spans recorded around the
public functions of each gamowkit module (see tracing.py).  Provenance
(host, numpy/BLAS build and kernel, config hashes) is printed on the line before,
and the spans of a traced run are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibration
import kernels
import oracles
import tracing
import workloads

OUT_DIR = ".perfbench_out"
SETUP_SPAWNS = 11
IMPORT_SPAWNS = 3
IMPORT_STATEMENT = "import gamowkit.cli"
FAMILY_DEV_ORDERS = (8, 12, 16)

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "largest_case_s": "s",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, missing data, bad spawn)."""


# ------------------------------------------------------------ commands


class Runner:
    """Runs one workload's commands in-process and keeps the tallies."""

    def __init__(self, root: Path, cli_main, workload, work_dir: Path):
        self.root = root
        self.cli_main = cli_main
        self.workload = workload
        self.tracer = None
        self.calibration = calibration.Calibration()
        self.attempted = 0
        self.failed = 0
        self.breaches = []
        self.digits = oracles.DIGITS_CAP
        self.pass_bytes = self._bytes = 0
        # click keeps every stream it has written to in a cache whose values
        # refer to their keys, so a fresh buffer per call would never be freed
        self._out, self._err = io.StringIO(), io.StringIO()
        self.config_paths = {}
        self.config_hashes = {}
        self._checked = {}
        self._expected = {}
        golden_path = root / "tests" / "golden" / "uniqueness_j4.json"
        for cmd in workload.commands + workload.probes:
            path = work_dir / f"{cmd.name}.conf"
            path.write_text(cmd.config, encoding="utf-8")
            self.config_paths[cmd.name] = str(path)
            self.config_hashes[cmd.name] = hashlib.sha256(cmd.config.encode()).hexdigest()
            self._expected[cmd.name] = self._expectation(cmd, golden_path)

    @staticmethod
    def _expectation(cmd, golden_path: Path):
        kind = cmd.args[0]
        if kind == "decay-curve":
            return oracles.decay_expectation(cmd.params)
        if kind == "pole-term":
            return oracles.pole_expectation(cmd.params)
        golden = None
        if cmd.params["j"] == 4:
            if not golden_path.is_file():
                raise BenchError(f"missing golden report {golden_path}")
            golden = golden_path.read_text(encoding="utf-8")
        return oracles.uniqueness_expectation(cmd.params["j"]), golden

    def invoke(self, cmd):
        """(exit code, stdout text, traceback text or None) of one CLI call."""
        out, err = self._out, self._err
        for stream in (out, err):
            stream.seek(0)
            stream.truncate()
        args = cmd.args + ["--config", self.config_paths[cmd.name]]
        code, crash = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.cli_main.main(args=args, prog_name="gamowkit", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is a failed command, not a dead benchmark
                code, crash = 1, traceback.format_exc()
        return code, out.getvalue(), crash

    def check(self, cmd, code: int, text: str, crash) -> oracles.Verdict:
        if crash is not None:
            return oracles.Verdict(False, 0.0, "traceback: " + crash.strip().splitlines()[-1])
        if code != 0:
            return oracles.Verdict(False, 0.0, f"exit code {code}")
        cached = self._checked.get(cmd.name)
        if cached is not None and cached[0] == text:
            return cached[1]
        kind = cmd.args[0]
        expected = self._expected[cmd.name]
        if kind == "decay-curve":
            verdict = oracles.check_decay(text, expected)
        elif kind == "pole-term":
            verdict = oracles.check_pole(text, expected)
        else:
            verdict = oracles.check_uniqueness(text, *expected)
        self._checked[cmd.name] = (text, verdict)
        return verdict

    def run(self, cmd, index: int) -> tuple:
        """Run and check one command; return (wall s, kernel s around it)."""
        if self.tracer is not None:
            self.tracer.command = index
        (code, text, crash), wall, kernel = self.calibration.timed(lambda: self.invoke(cmd))
        verdict = self.check(cmd, code, text, crash)
        self.attempted += 1
        self._bytes += len(text.encode())
        self.digits = min(self.digits, verdict.digits)
        if not verdict.ok:
            self.failed += 1
            if cmd.guaranteed:
                self.breaches.append(f"{cmd.name}: {verdict.detail}")
        return wall, kernel

    def passes(self, seconds: float) -> list:
        """Repeat full passes, at least one, until `seconds` have passed.
        Returns one {command name: (wall s, kernel s)} dict per pass."""
        result, end = [], perf_counter() + seconds
        while not result or perf_counter() < end:
            self._bytes = 0
            result.append({cmd.name: self.run(cmd, i)
                           for i, cmd in enumerate(self.workload.commands)})
            self.pass_bytes = self._bytes
        return result


# ------------------------------------------------------------ host side


def _spawn_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _spawn(root: Path, extra=()):
    proc = subprocess.run([sys.executable, *extra, "-c", IMPORT_STATEMENT], cwd=root,
                          env=_spawn_env(root), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"fresh interpreter cannot {IMPORT_STATEMENT!r}: {proc.stderr.strip()}")
    return proc.stderr


def setup_samples(root: Path, clock) -> list:
    """(wall s, kernel s) of fresh interpreters importing the CLI, one at a time."""
    _spawn(root)  # compiles bytecode on a fresh checkout
    return [clock.timed(lambda: _spawn(root), sample_within=False)[1:] for _ in range(SETUP_SPAWNS)]


def numpy_import_ms(root: Path) -> float:
    """Median cumulative numpy import time under -X importtime."""
    values = []
    for _ in range(IMPORT_SPAWNS):
        for line in _spawn(root, ("-X", "importtime")).splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                values.append(int(fields[1]) / 1000.0)
    return statistics.median(values) if values else 0.0


def _cpu_info() -> dict:
    info = {"model": platform.processor() or "unknown", "flags": []}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name":
                    info["model"] = value.strip()
                elif key == "flags":
                    info["flags"] = value.split()
                    break
    except OSError:
        pass
    return info


def _blas_coretype(numpy):
    """Kernel that a DYNAMIC_ARCH OpenBLAS bundled with numpy picked at run
    time (SkylakeX, Haswell, ...), or None when it cannot be asked."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def provenance(runner) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": runner.workload.name,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
        "blas_coretype": _blas_coretype(numpy),
        "cpu": _cpu_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "config_sha256": runner.config_hashes,
    }


# ------------------------------------------------------------ per-layer


def family_deviations(gamowkit) -> dict:
    """Largest float decay_deviation of the W(n) family at fixed orders,
    over both normalizations, on the decay workloads' time horizon."""
    import numpy

    grid = numpy.linspace(0.0, workloads.DECAY_T_MAX, workloads.FLOAT_STEPS)
    out = {}
    for r in FAMILY_DEV_ORDERS:
        worst = 0.0
        for norm in ("derivative", "factorial"):
            space = gamowkit.GamowSubspace(gamowkit.ResonancePole(2.0, 1.0, r), norm)
            for n in range(r):
                worst = max(worst, gamowkit.decay_deviation(gamowkit.w_n(space, n), grid))
        out[f"states.family_dev_r{r}"] = worst
    return out


def derivative_digits(gamowkit, seed: int) -> float:
    """Accuracy of analytic_derivatives on the pole-survival legs of this
    seed, at the contour radius Gamma/4 that pole_term uses."""
    worst = oracles.DIGITS_CAP
    for cmd in workloads.pole_survival(seed).commands:
        p = cmd.params
        model = gamowkit.SMatrixModel(gamowkit.ResonancePole(p["E_R"], p["Gamma"], p["r"]),
                                      gamowkit.BackgroundPhase("polynomial", tuple(p["gamma"])))
        psi, phi = gamowkit.TestFunction(tuple(p["psi"])), gamowkit.TestFunction(tuple(p["phi"]))
        expected = oracles.pole_expectation(dict(p, t_steps=1))
        legs = ((lambda w: psi.value(w) * model.phase_factor(w), expected["psi_derivatives"]),
                (phi.value, expected["phi_derivatives"]))
        for leg, want in legs:
            got = gamowkit.analytic_derivatives(leg, model.pole.z_R, p["r"] - 1, p["Gamma"] / 4.0)
            for value, oracle in zip(got, want):
                worst = min(worst, oracles.digits_of(complex(value), oracle))
    return worst


def layer_metrics(stats: dict, passes: int, probe: dict, start_nodes: int) -> dict:
    def calls(name):
        return stats.get(name, {}).get("calls", 0) / passes

    def total(name):
        return stats.get(name, {}).get("total", 0.0) / passes

    def mean_us(*names):
        n = sum(stats.get(x, {}).get("calls", 0) for x in names)
        return sum(stats.get(x, {}).get("total", 0.0) for x in names) / n * 1e6 if n else 0.0

    evolution = ("jordan.evolution_matrix", "jordan.evolution_matrix_bra")
    samples = [a["samples"] for a in stats.get("smatrix.analytic_derivatives", {}).get("attrs", [])]
    # nodes double from start_nodes, so a call that drew n samples in all
    # converged on a level of (n + start_nodes) / 2 nodes
    useful = sum((n + start_nodes) / 2 for n in samples)
    cli_self = sum(v["self"] for k, v in stats.items() if k.startswith("cli."))
    j12 = next((a for a in probe.get("uniqueness.certify", {}).get("attrs", [])
                if a["j"] == workloads.LADDER_PROBE), None)
    return {
        "cli.self_s": cli_self / passes,
        "uniqueness.build_s": total("uniqueness.build_constraints"),
        "uniqueness.oracle_s": total("uniqueness.oracle_evolution"),
        "uniqueness.self_s": stats.get("uniqueness.certify", {}).get("self", 0.0) / passes,
        "uniqueness.rows_j12": j12["constraint_rows"] if j12 else 0,
        "uniqueness.rank_j12": j12["rank"] if j12 else 0,
        "uniqueness.unknowns_j12": j12["unknown_count"] if j12 else 0,
        "jordan.evolution_calls": sum(calls(x) for x in evolution),
        "jordan.evolution_us": mean_us(*evolution),
        "states.evolve_calls": calls("states.evolve_operator"),
        "states.evolve_us": mean_us("states.evolve_operator"),
        "jordan.polys_ms": total("jordan.evolution_polys") * 1e3,
        "states.symbolic_calls": calls("states.evolve_operator_symbolic"),
        "states.symbolic_s": total("states.evolve_operator_symbolic"),
        "smatrix.derivative_calls": calls("smatrix.analytic_derivatives"),
        "smatrix.derivative_us": mean_us("smatrix.analytic_derivatives"),
        "smatrix.contour_samples": sum(samples) / passes,
        "smatrix.useful_sample_ratio": useful / sum(samples) if samples else 0.0,
        "states.probability_calls": calls("states.pole_term_probability"),
        "states.probability_ms": total("states.pole_term_probability") * 1e3,
    }


PER_LAYER_UNITS = {
    "fail_frac": "ratio",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.import_numpy_ms": "ms",
    "uniqueness.build_s": "s",
    "uniqueness.oracle_s": "s",
    "uniqueness.self_s": "s",
    "uniqueness.rows_j12": "count",
    "uniqueness.rank_j12": "count",
    "uniqueness.unknowns_j12": "count",
    "jordan.evolution_calls": "count",
    "jordan.evolution_us": "us",
    "states.evolve_calls": "count",
    "states.evolve_us": "us",
    "jordan.polys_ms": "ms",
    "states.symbolic_calls": "count",
    "states.symbolic_s": "s",
    "states.family_dev_r8": "ratio",
    "states.family_dev_r12": "ratio",
    "states.family_dev_r16": "ratio",
    "smatrix.derivative_calls": "count",
    "smatrix.derivative_us": "us",
    "smatrix.contour_samples": "count",
    "smatrix.useful_sample_ratio": "ratio",
    "states.probability_calls": "count",
    "states.probability_ms": "ms",
    "smatrix.derivative_err_digits": "digits",
    "algebra.gr_mul_ns": "ns",
    "algebra.gr_add_ns": "ns",
    "algebra.poly_mul_us": "us",
    "algebra.poly_eval_us": "us",
    "trace.overhead_frac": "ratio",
    "wall.run_s": "s",
    "host.slowdown": "ratio",
}


# ------------------------------------------------------------ entry point


def _median_seconds(samples, calibrated=True) -> float:
    """Median time of (wall s, kernel s) samples, calibrated to the quiet
    host's speed or, with calibrated false, as wall time."""
    if not calibrated:
        return statistics.median(wall for wall, _ in samples)
    quiet = calibration.QUIET_KERNEL_S
    return statistics.median(wall * quiet / kernel for wall, kernel in samples)


def _pass_seconds(passes, calibrated=True) -> float:
    """Time of one pass: the sum over commands of each one's median time."""
    return sum(_median_seconds([p[name] for p in passes], calibrated) for name in passes[0])


def end_to_end(runner, root: Path, seconds: float) -> dict:
    setup = setup_samples(root, runner.calibration)
    passes = runner.passes(seconds)
    return {
        "setup_s": _median_seconds(setup),
        "run_s": _pass_seconds(passes),
        "largest_case_s": _median_seconds([p[runner.workload.largest] for p in passes]),
        "accuracy_digits": runner.digits,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner, root: Path, seconds: float, seed: int, gamowkit, out_dir: Path) -> dict:
    untraced = runner.passes(seconds / 2)
    tracer = runner.tracer = tracing.Tracer()
    tracer.instrument(runner.cli_main)
    try:
        traced = runner.passes(seconds / 2)
        pass_spans = len(tracer.spans)
        for i, cmd in enumerate(runner.workload.probes, start=len(runner.workload.commands)):
            runner.run(cmd, i)
    finally:
        tracer.restore()
        runner.tracer = None
    tracer.write(out_dir / f"spans-{runner.workload.name}-seed{seed}.jsonl.gz")
    stats = tracing.summarize(tracer.spans[:pass_spans])
    probe = tracing.summarize(tracer.spans[pass_spans:])
    metrics = layer_metrics(stats, len(traced), probe, gamowkit.smatrix.CONTOUR_START_NODES)
    metrics["cli.output_bytes"] = runner.pass_bytes
    metrics["cli.import_numpy_ms"] = numpy_import_ms(root)
    metrics.update(family_deviations(gamowkit))
    metrics["smatrix.derivative_err_digits"] = derivative_digits(gamowkit, seed)
    metrics.update(kernels.measure(gamowkit.algebra, seed))
    metrics["trace.overhead_frac"] = _pass_seconds(traced) / _pass_seconds(untraced) - 1.0
    metrics["wall.run_s"] = _pass_seconds(untraced, calibrated=False)
    metrics["host.slowdown"] = runner.calibration.slowdown()
    metrics["fail_frac"] = runner.failed / runner.attempted
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "gamowkit" / "cli.py").is_file():
        print(f"perfbench: no gamowkit sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import gamowkit
    import gamowkit.cli

    if Path(gamowkit.__file__).resolve().parent != (src / "gamowkit").resolve():
        print(f"perfbench: imported gamowkit from {gamowkit.__file__}, not {src}", file=sys.stderr)
        return 2

    out_dir = root / OUT_DIR
    work_dir = out_dir / f"configs-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed)
        runner = Runner(root, gamowkit.cli.main, workload, work_dir)
        print(json.dumps({"provenance": provenance(runner)}, sort_keys=True))
        if args.trace:
            values = per_layer(runner, root, args.seconds, args.seed, gamowkit, out_dir)
            units = PER_LAYER_UNITS
        else:
            values = end_to_end(runner, root, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for breach in runner.breaches[:20]:
        print(f"perfbench: contract breach: {breach}", file=sys.stderr)
    result = {
        "correct": not runner.breaches,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
