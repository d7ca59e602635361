"""The record contract: every value record of forrlab keeps the
construction, validation, equality, hashing, mutability and repr of the
dataclass it replaced."""

import copy
import pickle
import re

import numpy as np
import pytest

from forrlab.boolean_fourier import FourierSpectrum, FunctionTable, SignVector
from forrlab.cli import ResultRecord
from forrlab.forrelation_dist import ForrParams, Label, LiftedInstance
from forrlab.protocol import ProtocolRunStats, QuantumProtocolConfig
from forrlab.quantum_sim import CNot, Circuit, Hadamard, Measure, Oracle, RPi8

S1 = SignVector([1, -1, 1, 1])
S2 = SignVector([1, 1, 1, 1])
P1 = ForrParams(8)
P2 = ForrParams(16)


def spec(cls, values, others=None, defaults=None, compared=None,
         hashable=True, frozen=True, twin=None, bad=()):
    """One record class: ``values`` builds it (all fields, in order),
    ``others`` holds a different value for each field, ``defaults`` the
    values of the fields that may be left out, ``compared`` the fields
    equality reads (None: identity), ``twin`` a class with the same fields
    that must not compare equal, and ``bad`` (overrides, error, message)
    triples that construction refuses."""
    return pytest.param(dict(
        cls=cls, values=values, others=others or {}, defaults=defaults or {},
        compared=compared, hashable=hashable, frozen=frozen, twin=twin,
        bad=bad), id=cls.__name__)


RECORDS = [
    spec(SignVector, {"signs": [1, -1, 1, 1]}, {"signs": [1, 1, 1, 1]},
         compared=("signs",), hashable=False,
         bad=[({"signs": [1, 0]}, ValueError,
               "SignVector entries must be exactly +-1"),
              ({"signs": [[1]]}, ValueError,
               "SignVector takes a one-dimensional sign sequence")]),
    spec(FunctionTable, {"n": 1, "values": [0.5, -1.0]},
         bad=[({"values": [0.0, np.inf]}, ValueError,
               "table values must all be finite"),
              ({"n": 2}, ValueError, "table for n=2 must have length 4")]),
    spec(FourierSpectrum, {"n": 1, "coeffs": [0.25, 0.75]},
         bad=[({"n": 2}, ValueError, "spectrum for n=2 must have length 4")]),
    spec(ForrParams, {"N": 8, "eps_override": 0.5},
         {"N": 16, "eps_override": 0.25}, defaults={"eps_override": None},
         compared=("N", "eps_override"),
         bad=[({"N": 6}, ValueError, "N must be a power of two >= 4, got 6"),
              ({"eps_override": 2.0}, ValueError,
               "eps override must lie in (0, 1], got 2.0")]),
    spec(LiftedInstance,
         {"N": 2, "eps": 0.1, "x": S1, "y": S1, "forr_value": 0.5,
          "label": Label.YES, "attempts": 3},
         {"N": 4, "eps": 0.2, "x": S2, "y": S2, "forr_value": 0.25,
          "label": Label.NO, "attempts": 4},
         defaults={"attempts": 1},
         compared=("N", "eps", "x", "y", "forr_value", "label"),
         hashable=False),
    spec(QuantumProtocolConfig,
         {"params": P1, "copies": 5, "threshold": 0.6, "seed": 7},
         {"params": P2, "copies": 6, "threshold": 0.7, "seed": 8},
         defaults={"threshold": None, "seed": 0},
         compared=("params", "copies", "threshold", "seed"),
         bad=[({"copies": 0}, ValueError, "copies must be positive, got 0"),
              ({"threshold": 2}, ValueError,
               "threshold must be a finite number in [0, 1], got 2")]),
    spec(ProtocolRunStats,
         {"ones_fraction": 0.5, "per_copy_bits": np.array([0, 1], np.uint8),
          "decision": Label.NO, "qubits_sent": 4, "oracle_calls": 2,
          "gate_count": 9}),
    spec(Hadamard, {"q": 0}, {"q": 1}, compared=("q",), twin=Measure),
    spec(CNot, {"control": 0, "target": 1}, {"control": 2, "target": 3},
         compared=("control", "target"),
         bad=[({"target": 0}, ValueError,
               "CNOT control and target must differ")]),
    spec(RPi8, {"q": 0}, {"q": 1}, compared=("q",), twin=Hadamard),
    spec(Oracle, {"signs": S1, "start": 0}, {"signs": S2, "start": 2},
         compared=("signs", "start"), hashable=False),
    spec(Measure, {"q": 0}, {"q": 1}, compared=("q",), twin=RPi8),
    spec(Circuit, {"m": 2, "gates": [Hadamard(0)]}, {"m": 3, "gates": []},
         defaults={"gates": []}, compared=("m", "gates"), hashable=False,
         frozen=False),
    spec(ResultRecord,
         {"experiment": "e", "subcommand": "s", "metric": "m",
          "estimate": 0.5, "standard_error": 0.1, "bound": "b",
          "passed": True, "N": 8, "eps": 0.2, "seed": 1, "samples": 10,
          "copies": 3, "mode": "amplified", "flags": "f", "wall_time": 1.5},
         defaults={"standard_error": "exact", "bound": "", "passed": None,
                   "N": None, "eps": None, "seed": None, "samples": None,
                   "copies": None, "mode": "", "flags": "", "wall_time": 0.0},
         frozen=False),
]


def same(a, b) -> bool:
    if isinstance(a, (np.ndarray, list)) and isinstance(b, (np.ndarray, list)):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("case", RECORDS)
def test_record_contract(case):
    cls, values = case["cls"], case["values"]
    names = list(values)

    # Construction: by position and by keyword; the old defaults.
    a = cls(*values.values())
    b = cls(**values)
    for name in names:
        assert same(getattr(a, name), values[name]), name
        assert same(getattr(b, name), values[name]), name
    required = [values[name] for name in names if name not in case["defaults"]]
    bare = cls(*required)
    for name, default in case["defaults"].items():
        assert same(getattr(bare, name), default), name
        if isinstance(default, list):
            assert getattr(bare, name) is not getattr(cls(*required), name)

    # Validation, before any field is set.
    for overrides, error, message in case["bad"]:
        with pytest.raises(error, match=re.escape(message)):
            cls(**{**values, **overrides})

    # Equality and hashing.
    assert a == a and not a != a
    assert a != object() and a != tuple(values.values())
    compared = case["compared"]
    if compared is None:
        assert a != b
        assert hash(a) == object.__hash__(a)
    else:
        assert a == b and not a != b
        for name in names:
            changed = cls(**{**values, name: case["others"][name]})
            assert (a == changed) is (name not in compared), name
        if case["hashable"]:
            assert hash(a) == hash(b)
            assert hash(a) == hash(tuple(values[name] for name in compared))
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
    if case["twin"] is not None:
        twin = case["twin"](*values.values())
        assert a != twin and twin != a
        assert a.__eq__(twin) is NotImplemented

    # Frozen records refuse assignment and deletion; the others allow it.
    name = names[0]
    if case["frozen"]:
        for act in (lambda: setattr(a, name, values[name]),
                    lambda: delattr(a, name),
                    lambda: setattr(a, "extra", 1)):
            with pytest.raises(AttributeError):
                act()
    else:
        setattr(a, name, "changed")
        assert getattr(a, name) == "changed"
        setattr(a, name, values[name])
    with pytest.raises(AttributeError):
        a.__dict__

    # The dataclass repr, and copies that rebuild every field.
    assert repr(a) == (f"{cls.__name__}("
                       + ", ".join(f"{n}={getattr(a, n)!r}" for n in names)
                       + ")")
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is cls
        for name in names:
            assert same(getattr(clone, name), getattr(a, name)), name
