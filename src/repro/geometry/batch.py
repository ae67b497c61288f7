"""Stub left for the benchmark harness: the Hausdorff kernels moved.

They live in :mod:`repro.geometry.hausdorff`.  ``perfbench/run.py``
imports :func:`batch_enabled` and refuses to measure unless it returns
``True``.
"""

from __future__ import annotations


def batch_enabled() -> bool:
    """Always True: the bound-and-prune kernels are the only path."""
    return True
