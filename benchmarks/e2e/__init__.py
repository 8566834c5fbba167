"""End-to-end, per-layer host + simulated benchmark (see README.md).

Two entry points share every line of measuring code:

* ``PYTHONPATH=src python -m benchmarks.e2e`` — all four workloads,
  round-robin fresh-process repetitions, tables, ``--out``/``--compare``;
* ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one workload, one JSON result line, the contract the
  root ``BENCHMARK.json`` describes.
"""
