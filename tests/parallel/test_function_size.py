"""No function in ``repro.parallel`` outgrows what a reader can hold.

The FF/AFF message loop and the child process body were once single
functions of 244 and 220 lines; this keeps the pieces they were split
into from growing back together.
"""

import ast
from pathlib import Path

import repro.parallel

MAX_LINES = 90


def test_no_function_in_the_parallel_package_exceeds_the_limit() -> None:
    too_long = []
    for path in sorted(Path(repro.parallel.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = node.end_lineno - node.lineno + 1
                if lines > MAX_LINES:
                    too_long.append(f"{path.name}:{node.name} ({lines} lines)")
    assert not too_long, too_long
