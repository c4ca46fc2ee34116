"""The value classes: plain slotted classes with hand-written constructors.

The pole, its subspace, the background phase, the S-matrix model, the
test function and the state operator are immutable; RunConfig is not.
Each constructor keeps the field order, defaults and keyword names its
callers use, and runs its checks in a fixed order with fixed messages.
"""

import math

import pytest

from gamowkit.cli import RunConfig
from gamowkit.errors import IndexOutOfRangeError
from gamowkit.jordan import GamowSubspace, ResonancePole
from gamowkit.smatrix import BackgroundPhase, SMatrixModel, TestFunction
from gamowkit.states import StateOperator

POLE = ResonancePole(2.0, 1.0, 3)
SPACE = GamowSubspace(POLE, "factorial")

# each immutable class, an instance of it and its fields in constructor order
FROZEN = {
    "ResonancePole": (lambda: ResonancePole(2.0, 1.0, 3), ("E_R", "Gamma", "r")),
    "GamowSubspace": (lambda: GamowSubspace(POLE), ("pole", "normalization")),
    "BackgroundPhase": (lambda: BackgroundPhase("polynomial", (1, 2.5)), ("kind", "params")),
    "SMatrixModel": (lambda: SMatrixModel(POLE), ("pole", "gamma", "absorb_gauge")),
    "TestFunction": (lambda: TestFunction(((1, 2, 0.5j),)), ("terms",)),
    "StateOperator": (lambda: StateOperator(SPACE, {(0, 1): (1, 2)}, 3),
                      ("space", "entries", "denominator")),
}


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__slots__)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_every_field_rejects_assignment_and_deletion(name):
    build, fields = FROZEN[name]
    value = build()
    assert type(value).__slots__ == fields
    for field in fields:
        old = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, old)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is old
    # no __dict__ takes a new attribute either
    with pytest.raises(AttributeError):
        value.extra = 1


def test_run_config_field_stays_assignable():
    cfg = RunConfig({"r": ["2"]})
    cfg.raw = {"r": ["3"]}
    assert cfg.get_int("r", cap=4) == 3
    with pytest.raises(AttributeError):
        cfg.extra = 1


def test_positional_and_keyword_forms_build_the_same_fields():
    assert _fields(ResonancePole(E_R=2.0, Gamma=1.0, r=3)) == _fields(POLE) == (2.0, 1.0, 3)

    assert _fields(GamowSubspace(POLE)) == (POLE, "derivative")
    assert _fields(GamowSubspace(pole=POLE, normalization="factorial")) == _fields(SPACE)

    # params are stored as a tuple of floats, from any iterable
    phase = BackgroundPhase("polynomial", tuple([1, 2.5]))
    assert _fields(phase) == _fields(BackgroundPhase(kind="polynomial", params=[1, 2.5]))
    assert phase.params == (1.0, 2.5) and all(type(p) is float for p in phase.params)
    assert _fields(BackgroundPhase()) == ("constant", (0.0,))

    # each default model gets a fresh constant phase
    first, second = SMatrixModel(POLE), SMatrixModel(POLE)
    assert first.gamma is not second.gamma
    assert _fields(first.gamma) == ("constant", (0.0,)) and first.absorb_gauge is True
    model = SMatrixModel(POLE, phase, absorb_gauge=False)
    assert _fields(model) == (POLE, phase, False)
    assert _fields(SMatrixModel(pole=POLE, gamma=phase, absorb_gauge=False)) == _fields(model)

    # terms are cleaned to (float a, int m, complex c)
    terms = TestFunction(tuple([(1, 2.0, 3), (0.5, 1, 1j)])).terms
    assert terms == ((1.0, 2, 3 + 0j), (0.5, 1, 1j))
    assert [tuple(map(type, term)) for term in terms] == [(float, int, complex)] * 2
    assert TestFunction(terms=[(1, 2.0, 3), (0.5, 1, 1j)]).terms == terms
    assert TestFunction().terms == ()

    entries = {(0, 1): (1, 2)}
    operator = StateOperator(space=SPACE, entries=entries, denominator=3)
    assert _fields(operator) == _fields(StateOperator(SPACE, entries, 3)) == (SPACE, entries, 3)

    raw = {"r": ["2"]}
    assert RunConfig(raw).raw is RunConfig(raw=raw).raw is raw


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ResonancePole(0.0, -1.0, 0), "E_R must be positive and finite, got 0.0"),
        (lambda: ResonancePole(math.inf, 1.0, 1), "E_R must be positive and finite, got inf"),
        (lambda: ResonancePole(2.0, math.nan, 0), "Gamma must be positive and finite, got nan"),
        (lambda: ResonancePole(2.0, 1.0, 0), "pole order r must be >= 1, got 0"),
        (lambda: GamowSubspace(POLE, "scaled"), "unknown normalization 'scaled'"),
        (lambda: BackgroundPhase("cubic", ()), "unknown phase kind 'cubic'"),
        (lambda: BackgroundPhase("constant", (1, 2)), "constant phase takes exactly one parameter"),
        (lambda: BackgroundPhase("polynomial", ()), "phase needs at least one parameter"),
        (lambda: TestFunction(((1.0, 1, 1.0), (0.0, 0, math.nan))),
         "test-function pole scale a must be positive and finite, got 0.0"),
        (lambda: TestFunction(((1.0, 0, complex(math.inf, 0.0)),)),
         "test-function coefficient c must be finite, got (inf+0j)"),
        (lambda: TestFunction(((1.0, 0, 1.0),)), "test-function pole order m must be >= 1, got 0"),
    ],
)
def test_bad_fields_raise_the_checks_message(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_dyad_outside_the_subspace_is_rejected():
    with pytest.raises(IndexOutOfRangeError, match=r"^dyad indices must be in 0\.\.2, got \(0, 3\)$"):
        StateOperator(SPACE, {(0, 1): (1, 0), (0, 3): (1, 0)}, 1)
