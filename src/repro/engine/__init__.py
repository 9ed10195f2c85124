"""Batched group-evaluation engine for the WLAN hot path.

The per-slot cost of the IAC WLAN simulation is dominated by the
concurrency selector probing candidate transmission groups: the scalar
path re-runs :func:`~repro.core.alignment.solve_downlink_three_packets`
and :func:`~repro.core.decoder.decode_rate_level` from scratch for every
probe — O(clients^3) tiny ``np.linalg`` calls per slot.  This package
replaces that with two orthogonal optimisations in one evaluator:

* **Batching** (:mod:`repro.engine.batched`): the believed channels of
  every not-yet-cached candidate group, every subcarrier of a wideband
  group a row of its own, are stacked into a ``(G·B, 3, 3, M, M)``
  ndarray and the alignment
  solutions plus rate-level SINRs are computed with stacked ``np.linalg``
  calls (``inv``/``eig``/``solve`` broadcast over the leading group axis),
  amortising the Python and LAPACK dispatch overhead over the whole probe.

* **Memoisation** (:class:`~repro.engine.evaluator.BatchedGroupEvaluator`):
  solved groups are cached under their ordered client tuple.  **The
  memoisation key is the tuple of the group's clients' channel-map
  versions** as reported by the evaluator's channel source (the leader
  AP bumps a client's version on association and on every applied drift
  report).  A cached solution is reused while every member client's
  version is unchanged — i.e. between drift reports the same group is
  never re-solved — and a single drift report invalidates exactly the
  cached groups containing the drifted client.

Both WLAN engines run that one batched evaluator, on flat and wideband
channels alike (a flat channel is the one-bin band); it gathers each
probe from a believed-channel mirror, and its
``plan``/``install`` split lets the fast engine pool many cells' solves
into one call.  The scalar per-group path lives on only as the test-only
oracle ``tests/reference/evaluator.py``;
``tests/engine/test_evaluator.py`` asserts numerical equivalence with the
batched evaluator on random channel sets for all selectors and 2-4
antennas.  :mod:`repro.engine.bench` checks and times both WLAN engines
(``python -m repro bench``, written to ``BENCH.json``).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "batched": (
        "downlink_sinrs_batch",
        "downlink_transmit_sinrs_cached",
        "solve_downlink_three_batch",
    ),
    "evaluator": ("ALIGNMENT_MODES", "BatchedGroupEvaluator"),
})
