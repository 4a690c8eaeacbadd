import copy
import os
import pickle
import subprocess
import sys

import pytest

from diffdim import (
    CompareVerdict,
    JanetBox,
    LeaderSpec,
    OmegaResult,
    Ranking,
    ReductionTrace,
    RingSpec,
    SystemFile,
    ValidationReport,
    compare_ideals,
    omega,
    parse_system,
)
from diffdim.chains import DeltaCheck

from corpus import TESTS


def _records(data_dir):
    """One instance of each record type, most of them from a real run."""
    system = parse_system((data_dir / "prolong_pair.sys").read_text(encoding="utf-8"))
    smaller, larger = system.chains["A"], system.chains["S"]
    check = larger.delta_checks[0]
    result = omega(larger)
    return [
        system.ring,
        system.ranking,
        larger.leader_spec,
        check.trace,
        check,
        larger.validation_report(),
        result,
        result.janet_boxes[0],
        compare_ideals(smaller, larger),
        # a DiffChain compares by identity, so a copied file holds new ones
        SystemFile(system.ring, system.ranking, {}),
    ]


RECORD_TYPES = (
    RingSpec, Ranking, LeaderSpec, ReductionTrace, DeltaCheck,
    ValidationReport, OmegaResult, JanetBox, CompareVerdict, SystemFile,
)
FROZEN = (RingSpec, Ranking, LeaderSpec, JanetBox)


def test_every_record_survives_pickle_and_copy(data_dir):
    records = _records(data_dir)
    assert tuple(map(type, records)) == RECORD_TYPES
    for record in records:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(record, protocol)) == record
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record


def test_records_compare_hash_and_print_by_their_fields(data_dir):
    ring = RingSpec(["t", "x"], ("u",))
    assert repr(ring) == "RingSpec(derivation_names=('t', 'x'), indeterminate_names=('u',))"
    assert repr(ReductionTrace(0)) == "ReductionTrace(remainder=0, steps=())"
    assert ring == RingSpec(("t", "x"), ["u"]) and ring != RingSpec(("x", "t"), ("u",))
    assert hash(ring) == hash((("t", "x"), ("u",)))
    report = ValidationReport(True, True)
    assert report.messages == [] and report.messages is not ValidationReport(True, True).messages
    assert report != ReductionTrace(True)
    for record in _records(data_dir):
        if isinstance(record, FROZEN):
            assert hash(record) == hash(tuple(getattr(record, f) for f in type(record).__slots__))
            name = type(record).__slots__[0]
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)


def _loaded_in_bare_interpreter(statement: str) -> set[str]:
    """Which of dataclasses, inspect and typing `python -S -c statement`
    leaves loaded."""
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
    watched = "{'dataclasses', 'inspect', 'typing'}"
    script = f"{statement}; import sys; print(*{watched} & set(sys.modules))"
    run = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, check=True, text=True
    )
    return set(run.stdout.split())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Start-up pays for no module that diffdim does not use: neither
    dataclasses, nor inspect, nor typing.  The standard modules the CLI
    imports load inspect and typing on no Python this package supports; if
    one ever does, that module is not asserted, only dataclasses is."""
    loaded = _loaded_in_bare_interpreter("import diffdim.cli")
    assert "dataclasses" not in loaded
    stdlib = _loaded_in_bare_interpreter("import argparse, json, fractions, threading, enum, re")
    assert not loaded & ({"inspect", "typing"} - stdlib)
