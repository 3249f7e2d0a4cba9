"""The repository's benchmark: workloads, metrics and per-layer tracing.

See ``README.md`` in this directory; the entry point is ``run.py``.
"""
