"""Script entry of the benchmark: ``python3 benchmarks/e2e/run.py ...``.

``BENCHMARK.json`` names this file because its command may carry no
environment variables; it puts ``src`` and the checkout root on the import
path and hands over to :mod:`benchmarks.e2e.cli` (the same thing
``PYTHONPATH=src python -m benchmarks.e2e`` runs).
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
# Replace the script's own directory: its modules are imported as a package.
sys.path[0] = ROOT
sys.path.insert(0, os.path.join(ROOT, "src"))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
