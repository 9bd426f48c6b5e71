"""Every settable input has a row in ``docs/KNOBS.md``, and the total is pinned.

ROADMAP: "a knob stays only if a bench shows it changes something."  The
audit lives in ``docs/KNOBS.md`` — one row per input with who sets it
outside ``tests/`` and the bench and metric it moves.  This guard keeps
the file and the code in step: a new field or constructor keyword fails
here until it gets a row (with a caller to cite), a deleted one fails
until its row goes, and the total moves only by a deliberate edit.
"""

import dataclasses
import inspect
import re
from pathlib import Path

from repro import (
    AdaptationParams,
    AdmissionConfig,
    AsyncioKernel,
    CacheConfig,
    ProcessCosts,
    ProcessKernel,
    QueryEngine,
    QueryOptions,
    SimKernel,
    WSMED,
)
from repro.cli import Shell
from repro.parallel.faults import FaultInjection
from repro.serve import QueryServer

KNOBS_MD = Path(__file__).resolve().parent.parent / "docs" / "KNOBS.md"

CONFIG_DATACLASSES = (
    QueryOptions,
    ProcessCosts,
    AdmissionConfig,
    CacheConfig,
    AdaptationParams,
    FaultInjection,
)
CONSTRUCTORS = (
    WSMED,
    QueryEngine,
    QueryServer,
    ProcessKernel,
    AsyncioKernel,
    SimKernel,
    Shell,
)
#: Raising this needs a row in docs/KNOBS.md naming the caller outside
#: tests/ that sets the new input and what it moves.
SETTABLE_INPUTS = 59


def settable_inputs() -> set[str]:
    """``Class.field`` per dataclass field, ``Class(arg=)`` per optional
    constructor argument."""
    names = {
        f"{cls.__name__}.{field.name}"
        for cls in CONFIG_DATACLASSES
        for field in dataclasses.fields(cls)
    }
    for cls in CONSTRUCTORS:
        for name, parameter in inspect.signature(cls.__init__).parameters.items():
            if parameter.default is not inspect.Parameter.empty:
                names.add(f"{cls.__name__}({name}=)")
    return names


def documented_inputs() -> list[str]:
    """First-column names of the rows that carry a default column."""
    row = re.compile(r"^\| `([A-Za-z]+(?:\.\w+|\(\w+=\)))` \| `", re.MULTILINE)
    return row.findall(KNOBS_MD.read_text())


def test_every_settable_input_has_exactly_one_row() -> None:
    code, rows = settable_inputs(), documented_inputs()
    assert sorted(set(rows)) == sorted(rows), "duplicate rows in docs/KNOBS.md"
    assert code - set(rows) == set(), "inputs without a row in docs/KNOBS.md"
    assert set(rows) - code == set(), "rows in docs/KNOBS.md without an input"


def test_the_number_of_settable_inputs_is_pinned() -> None:
    assert len(settable_inputs()) == SETTABLE_INPUTS
    assert f"**{SETTABLE_INPUTS}**" in KNOBS_MD.read_text()
