"""Shared numerical utilities for the IAC reproduction.

The submodules here are deliberately small and dependency-free (numpy only):

``linalg``
    Complex vector helpers used by the alignment solvers and the decoders
    (normalisation, alignment residuals), plus low-overhead stacked
    ``inv``/``solve``/``eig`` for the engine's per-slot hot path.
``db``
    Decibel/linear conversions used throughout the PHY and the experiment
    harness.
``rng``
    Seeded random-number helpers so every experiment in the paper-reproduction
    suite is deterministic and repeatable.
``knobs``
    Integer-knob validation shared by the simulation configs.
``lazy``
    The PEP 562 helper behind every lazy package surface in ``repro``.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "db": ("db_to_linear", "db_to_power", "linear_to_db", "power_to_db"),
    "linalg": ("align_error", "herm", "normalize"),
    "rng": ("default_rng", "spawn_rngs"),
})
