"""Closed-form trial fast path and its switch (DESIGN.md §15).

This package hosts the closed-form trial engine
(:mod:`repro.perf.fastpath`) plus the one switch that decides whether
it runs at all.  Both are pure Python.

The contract is strict equivalence: the fast path is a drop-in for the
scheduler and must produce bit-identical observable results (verdicts,
traffic bytes, figure rows, artefact payloads).  The scheduler stays
the reference it is tested against: ``REPRO_NO_FASTPATH=1`` (or
:func:`force_fastpath`) sends every trial through it, and the outputs
do not change by a single byte.  The equivalence is pinned by the
fast-path equivalence tests, the golden rows and the row digests of
``tests/test_artifacts.py``, and by the ``repro diff`` legs in CI.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

#: set to anything but "" or "0" to send every trial to the scheduler.
_ENV_VAR = "REPRO_NO_FASTPATH"


def fastpath_enabled() -> bool:
    """Whether eligible trials take the closed-form fast path."""
    return os.environ.get(_ENV_VAR, "") in ("", "0")


@contextmanager
def force_fastpath(enabled: bool) -> Iterator[None]:
    """Temporarily switch the fast path on or off.

    The override sets ``REPRO_NO_FASTPATH`` for its scope, so sharded
    sweep workers started inside it inherit the same mode.
    """
    previous = os.environ.get(_ENV_VAR)
    os.environ[_ENV_VAR] = "0" if enabled else "1"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[_ENV_VAR]
        else:
            os.environ[_ENV_VAR] = previous


def provenance() -> dict:
    """Engine provenance for benchmark records: whether the fast path is on."""
    return {"fastpath": fastpath_enabled()}


__all__ = [
    "fastpath_enabled",
    "force_fastpath",
    "provenance",
]
