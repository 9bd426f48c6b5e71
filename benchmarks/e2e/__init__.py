"""The repo benchmark: five wall-clock workloads from the one-shot paper
query to HTTP, with per-layer probes and a traced run.  See README.md."""

import os

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout root: where BENCHMARK.json and ``src/`` live.
ROOT = os.path.dirname(os.path.dirname(HERE))
