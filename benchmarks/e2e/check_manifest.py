"""Hold ``BENCHMARK.json``, :mod:`benchmarks.e2e.metrics` and what a run
prints in agreement.

:func:`check_manifest` validates the manifest against the driver's schema
(key set, name/unit alphabets, counts, ``setup_s``, bounds, paths) and
against the declared metric table; :func:`check_printed` checks that a run
printed exactly the declared metrics of its mode.  The run command calls
both and exits non-zero on a mismatch.
"""

from __future__ import annotations

import json
import os
import re
import sys

from . import ROOT
from .metrics import END_TO_END, PER_LAYER
from .workloads import WORKLOADS

MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
_PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def load_manifest() -> dict:
    with open(MANIFEST) as handle:
        return json.load(handle)


def check_manifest() -> list[str]:
    """Every way the manifest disagrees with the schema or the table."""
    errors: list[str] = []
    if os.path.getsize(MANIFEST) > 64 * 1024:
        errors.append("BENCHMARK.json is larger than 64 KiB")
    manifest = load_manifest()
    if set(manifest) != _KEYS:
        return errors + [f"keys {sorted(manifest)} != {sorted(_KEYS)}"]

    command = manifest["command"]
    if not (
        isinstance(command, list)
        and 1 <= len(command) <= 32
        and all(isinstance(part, str) and len(part) <= 200 for part in command)
    ):
        errors.append("command must be a list of 1-32 strings of <= 200 characters")
    paths = manifest["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        errors.append("paths must list 1-16 directories")
    for path in paths:
        if not _PATH.fullmatch(path) or path.startswith("/") or ".." in path.split("/"):
            errors.append(f"bad path {path!r}")
        elif not os.path.isdir(os.path.join(ROOT, path)):
            errors.append(f"path {path!r} does not exist")
    seconds = manifest["run_seconds"]
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        errors.append("run_seconds must be a whole number from 1 to 60")

    names: list[str] = []
    workloads = manifest["workloads"]
    if not 2 <= len(workloads) <= 8:
        errors.append("there must be 2-8 workloads")
    for workload in workloads:
        if set(workload) != {"name", "why"}:
            errors.append(f"workload keys {sorted(workload)} != ['name', 'why']")
            continue
        names.append(workload["name"])
        if len(workload["why"]) > 200 or "\n" in workload["why"]:
            errors.append(f"workload {workload['name']!r}: why must be one line <= 200")
    if names != list(WORKLOADS):
        errors.append(f"workloads {names} != implemented {list(WORKLOADS)}")

    for section, keys, limit, declared in (
        ("end_to_end", {"name", "unit", "better", "bound"}, 16, END_TO_END),
        ("per_layer", {"name", "unit", "better"}, 128, PER_LAYER),
    ):
        entries = manifest[section]
        if not 1 <= len(entries) <= limit:
            errors.append(f"{section} must hold 1-{limit} metrics")
        listed = []
        for entry in entries:
            if set(entry) != keys:
                errors.append(f"{section} entry keys {sorted(entry)} != {sorted(keys)}")
                continue
            names.append(entry["name"])
            if not _UNIT.fullmatch(entry["unit"]):
                errors.append(f"{entry['name']}: bad unit {entry['unit']!r}")
            if entry["better"] not in ("lower", "higher"):
                errors.append(f"{entry['name']}: better must be lower or higher")
            bound = entry.get("bound", 0.0)
            if not (isinstance(bound, (int, float)) and 0.0 <= bound <= 0.25):
                errors.append(f"{entry['name']}: bound must be within 0-0.25")
            listed.append(tuple(entry[key] for key in ("name", "unit", "better")))
        # The table adds a fourth column (bound or the predicted effect).
        if listed != [row[:3] for row in declared]:
            errors.append(f"{section} differs from benchmarks/e2e/metrics.py")
        for row in declared:
            if not (isinstance(row[3], float) or (isinstance(row[3], str) and row[3])):
                errors.append(f"{row[0]}: no bound / predicted effect declared")
    bounds = {entry["name"]: entry.get("bound") for entry in manifest["end_to_end"]}
    if bounds != {row[0]: row[3] for row in END_TO_END}:
        errors.append("end_to_end bounds differ from benchmarks/e2e/metrics.py")
    if "setup_s" not in bounds:
        errors.append("end_to_end must include setup_s")

    for name in names:
        if not _NAME.fullmatch(name):
            errors.append(f"bad name {name!r}")
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        errors.append(f"names used more than once: {sorted(duplicates)}")
    return errors


def check_printed(metrics: dict, trace: bool) -> list[str]:
    """A run prints every declared metric of its mode, and nothing else."""
    declared = {row[0] for row in (PER_LAYER if trace else END_TO_END)}
    return [f"declared but not printed: {name}" for name in declared - metrics.keys()] + [
        f"printed but not declared: {name}" for name in metrics.keys() - declared
    ]


def main() -> int:
    errors = check_manifest()
    for error in errors:
        print(f"BENCHMARK.json: {error}", file=sys.stderr)
    if not errors:
        print("BENCHMARK.json agrees with benchmarks/e2e/metrics.py")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
