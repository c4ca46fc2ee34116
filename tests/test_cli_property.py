"""Property test of the CLI failure contract over generated configs.

Whatever the config text, every command either succeeds (exit 0 with
finite output that parses) or fails cleanly (exit 1, 2 or 3 with exactly
one line on stderr).  It never ends in a traceback and never emits a
warning.  Floats come from the whole float range, including inf, nan,
subnormals and signed zeros; orders and grids stay small so that every
example runs fast.
"""

import csv
import io
import json
import math
import warnings

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gamowkit.cli import main, parse_config_text
from gamowkit.errors import ConfigInvalidError

# moderate values reach the end of every command; the whole range reaches
# its overflow and underflow exits
moderate = st.floats(min_value=1e-3, max_value=1e3)
positive = moderate | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
nonnegative = moderate | st.floats(min_value=0.0, allow_infinity=False)
finite = moderate | moderate.map(float.__neg__) | st.floats(allow_nan=False, allow_infinity=False)
bad_values = st.one_of(
    st.floats().map(repr),
    st.integers(min_value=-2, max_value=6).map(str),
    st.sampled_from(["x", "1e999", "1 2", "derivative"]),
)
noise = st.sampled_from(["garbage", "key =", "= value"])


@st.composite
def config_texts(draw):
    """A config that every command can read, with one defect in one of
    five draws: a key dropped, repeated or given a bad value, or a
    malformed line."""
    t_lo, t_hi = sorted(draw(st.lists(nonnegative, min_size=2, max_size=2)))
    e_lo, e_hi = sorted(draw(st.lists(finite, min_size=2, max_size=2)))
    values = {
        "E_R": repr(draw(positive)),
        "Gamma": repr(draw(positive)),
        "r": str(draw(st.integers(min_value=1, max_value=6))),
        "j": str(draw(st.integers(min_value=0, max_value=6))),
        "normalization": draw(st.sampled_from(["derivative", "factorial"])),
        "absorb_gauge": draw(st.sampled_from(["true", "false"])),
        "t_min": repr(t_lo),
        "t_max": repr(t_hi),
        "t_steps": str(draw(st.integers(min_value=1, max_value=5))),
        "e_min": repr(e_lo),
        "e_max": repr(e_hi),
        "e_steps": str(draw(st.integers(min_value=1, max_value=5))),
    }
    defect = draw(st.sampled_from([None, None, None, None, "drop", "repeat", "bad", "noise"]))
    if defect in ("drop", "repeat", "bad"):
        key = draw(st.sampled_from(sorted(values)))
        lines = [f"{k} = {v}" for k, v in values.items() if k != key or defect != "drop"]
        if defect == "bad":
            lines.remove(f"{key} = {values[key]}")
        if defect != "drop":
            lines.append(f"{key} = {draw(bad_values)}")
    else:
        lines = [f"{k} = {v}" for k, v in values.items()]
        lines += draw(st.lists(noise, min_size=defect == "noise", max_size=defect == "noise"))
    lines += [f"gamma = {g!r}" for g in draw(st.lists(finite, max_size=3))]
    term = st.tuples(positive, st.integers(min_value=1, max_value=3), finite, finite)
    for key in ("psi", "phi"):
        for a, m, re, im in draw(st.lists(term, min_size=1, max_size=2)):
            lines.append(f"{key} = {a!r} {m} {re!r} {im!r}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


COMMANDS = [
    ["decay-curve"],
    ["decay-curve", "--exact", "--format", "json", "--normalization", "factorial"],
    ["lineshape"],
    ["pole-term"],
    ["uniqueness"],
    ["jordan-info"],
]


def _finite_numbers(value):
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _parses(args, text: str) -> bool:
    if args[0] in ("decay-curve", "lineshape") and "json" not in args:
        header, *rows = list(csv.reader(io.StringIO(text)))
        return bool(rows) and all(
            len(row) == len(header) and all(math.isfinite(float(v)) for v in row) for row in rows
        )
    return _finite_numbers(json.loads(text))


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(text=config_texts())
def test_every_command_exits_cleanly(tmp_path, text):
    try:
        parsed = parse_config_text(text)
    except ConfigInvalidError:
        parsed = None
    assert parsed is None or all(isinstance(v, list) and v for v in parsed.values())

    path = tmp_path / "fuzz.conf"
    path.write_text(text)
    runner = CliRunner()
    for args in COMMANDS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, args + ["--config", str(path)])
        context = f"{args} on\n{text}"
        assert [str(w.message) for w in caught] == [], context
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            f"{context}\n{result.exception!r}"
        )
        if result.exit_code == 0:
            assert result.stderr == "", context
            assert _parses(args, result.stdout), context
        else:
            assert result.exit_code in (1, 2, 3), context
            assert len(result.stderr.splitlines()) == 1, f"{context}\n{result.stderr}"
