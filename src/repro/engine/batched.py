"""Batched downlink alignment + rate-level decoding over a group axis.

The scalar path (:func:`repro.core.alignment.solve_downlink_three_packets`
followed by :func:`repro.core.decoder.decode_rate_level`) performs a dozen
tiny ``np.linalg`` calls and builds several Python objects *per candidate
group*.  When a concurrency selector probes many groups per slot, that
Python-level overhead dominates the wall clock.

This module runs the identical mathematics for ``G`` candidate groups at
once by stacking their believed channel matrices into an
``(G, 3, 3, M, M)`` ndarray and using numpy's stacked linear algebra
(``inv``, ``eig``, ``solve`` all broadcast over leading axes):

* the channel batch comes from the believed-channel mirror of
  :class:`repro.engine.evaluator.BatchedGroupEvaluator` (one fancy-index
  gather per probe);
* :func:`solve_downlink_three_batch` solves Eqs. 5-7 for every group and
  every eigenvector candidate of the alignment loop matrix, scores every
  candidate at rate level, and keeps the per-group best — exactly the
  scalar solver's selection rule (first index of the maximum estimated
  throughput, eigenvalues sorted by descending magnitude);
* :func:`downlink_sinrs_batch` is the batched rate-level decoder for the
  non-cooperative 3-packet downlink: per-receiver MMSE (max-SINR) filters
  from :func:`repro.phy.mimo.detection.max_sinr_vectors` and SINRs from
  :func:`repro.phy.mimo.detection.post_projection_sinr_batch`.

Scoring is one gather per decode.  One ``einsum`` gives every packet's
received direction at every receiver, and one ``take``
(:func:`_receiver_rows`) lays out each receiver's rows as ``[desired,
interferer, interferer]``.  The filter design reads its interference
from those rows, and one more ``einsum`` gives the desired and cross
terms together.  The solver, the flat-anchor rescoring and the transmit
decode share these helpers.  The hot path calls numpy's C
``einsum`` and LAPACK gufuncs directly and caches its index arrays per
``(G, M)``: it only skips Python-side wrapper work.  Every per-element
operation is the one the scalar solver runs, in the same order, so the
fused kernel is byte-identical to the unfused one
(``tests/engine/test_kernel_oracle.py`` keeps a frozen copy of it as
its oracle).

The wideband (per-subcarrier, §6c) layer needs no kernel of its own:
every subcarrier of a group is the flat problem, so the evaluator lays
a ``(G, B)`` band out as ``G·B`` rows of one solver batch
(:func:`repro.engine.evaluator.solver_rows`), and the transmit decode
takes the bin axis as one more leading batch axis.  A flat channel is
the ``B = 1`` band.

Numerical equivalence with the scalar path is asserted by
``tests/engine/test_evaluator.py`` (all selectors, 2-4 antennas) and,
for bands against the per-bin scalar loop, by
``tests/engine/test_band.py``.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from repro.phy.mimo.detection import max_sinr_vectors, post_projection_sinr_batch
from repro.phy.mimo.precoding import normalize_encodings
from repro.utils.linalg import c_einsum, stacked_eig, stacked_inv

#: Index layout of the channel batch: ``h[g, i, j]`` is the believed
#: channel from AP ``aps[i]`` to client ``group[j]`` of group ``g``.
GROUP_SIZE = 3

# Index arrays of the per-slot hot path, built once.  Receiver ``j``'s
# rows are packet ``j`` (desired) and then its two interferers, as flat
# offsets ``3 j + i`` into the ``(receiver j, packet i)`` plane, so one
# ``take`` gathers all three receivers' rows at once.
_ROWS = np.array([[0, 1, 2], [4, 3, 5], [8, 6, 7]])
# The solver's six channel pairs (AP, client), in the order of
# ``solve_downlink_three_batch``'s comment.
_PAIR_AP = np.array([2, 1, 2, 1, 0, 0])
_PAIR_CLIENT = np.array([1, 2, 0, 0, 1, 2])


@functools.lru_cache(maxsize=256)
def _indices(n_groups: int, m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solver's group and antenna index arrays for ``(G, M)``
    (read-only: every solve of that shape shares them)."""
    g_idx = np.arange(n_groups)
    g_idx.flags.writeable = False
    m_idx = np.arange(m)
    m_idx.flags.writeable = False
    return g_idx[:, None, None], m_idx[None, :, None], g_idx


def _receiver_rows(ht: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(..., 3, 3, M)`` received directions, one ``[desired, interferer,
    interferer]`` block per receiver, from ``ht[..., j, i]`` (the channel
    AP ``i`` -> client ``j``) and the ``(..., 3, M)`` encodings ``v``."""
    # d[..., j, i] = H(ap_i, k_j) v_i  (packet i as seen by receiver j).
    d = c_einsum("...jimn,...in->...jim", ht, v)
    return d.reshape(d.shape[:-3] + (GROUP_SIZE * GROUP_SIZE, d.shape[-1])).take(
        _ROWS, axis=-2
    )


def downlink_sinrs_batch(
    h: np.ndarray,
    v: np.ndarray,
    noise_power: float,
    return_filters: bool = False,
) -> np.ndarray:
    """Rate-level SINRs of batched downlink-3 solutions.

    Mirrors :func:`repro.core.decoder.decode_rate_level` for the
    non-cooperative downlink with the default max-SINR receiver and unit
    per-packet transmit amplitude (each AP sends exactly one packet, so the
    equal power split is a no-op).

    Parameters
    ----------
    h:
        ``(G, 3, 3, M, M)`` channel batch, ``h[g, i, j]`` the channel
        from AP ``i`` to client ``j`` of group ``g``.
    v:
        ``(..., 3, M)`` encoding vectors with leading batch axes matching
        ``h``'s group axis (extra candidate axes broadcast).
    noise_power:
        Receiver noise power per antenna.

    Returns
    -------
    numpy.ndarray
        ``(..., 3)`` SINRs, packet ``i`` decoded at client ``i``.  With
        ``return_filters=True``, the tuple ``(sinrs, w)`` where ``w`` is
        the ``(..., 3, M)`` max-SINR receive filters the SINRs were
        evaluated with (computed either way; returning them lets callers
        memoise the believed-design filters for the transmit step).
    """
    # Candidate axes of ``v`` sit between the group and packet axes.
    ht = h.swapaxes(1, 2)[(slice(None),) + (None,) * (v.ndim - 3)]
    rows = _receiver_rows(ht, v)
    # All three receivers in one batched filter design + SINR evaluation:
    # the receiver axis is just one more batch axis on the same per-slice
    # arithmetic, so this is bit-identical to looping over receivers.
    w = max_sinr_vectors(rows, noise_power)
    sinrs = post_projection_sinr_batch(w, rows, noise_power)
    if return_filters:
        return sinrs, w
    return sinrs


def downlink_transmit_sinrs_cached(
    h_true: np.ndarray,
    v: np.ndarray,
    w_believed: np.ndarray,
    noise_power: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Actual and genie SINRs of transmitted downlink groups.

    The transmission step of the WLAN sim decodes the chosen solution
    against the *true* channels twice: once with receive filters designed
    from the leader's believed (possibly stale) estimates — the actual
    outcome — and once with filters designed from the true channels — the
    genie bound used to account staleness loss.  The believed-design
    filters are a pure function of the believed channels and the encoding
    vectors — both already fixed when the evaluator solved/scored this
    group — so the evaluator caches them (:func:`downlink_sinrs_batch`
    with ``return_filters``) and only the genie filters are designed
    here.  Batch-slice invariance of the max-SINR design makes the cached
    filters bit-identical to recomputing them from the believed channels.

    Leading axes are group axes, and the decode is batch-invariant:
    decoding a stack of groups gives, slice for slice, what decoding each
    group alone gives (pinned by ``tests/engine/test_batch_invariance.py``),
    which is what lets a wave of cells share one call.

    Parameters
    ----------
    h_true:
        ``(..., 3, 3, M, M)`` true-channel stacks.
    v:
        ``(..., 3, M)`` unit-norm encoding vectors of the transmitted
        solutions.
    w_believed:
        ``(..., 3, M)`` memoised believed-design receive filters.
    noise_power:
        Receiver noise power per antenna.

    Returns
    -------
    (actual, ideal):
        Two ``(..., 3)`` arrays of per-packet SINRs, packet ``i`` at
        client ``i``.
    """
    # Received directions over the *true* channels only.
    rows = _receiver_rows(np.swapaxes(h_true, -4, -3), v)
    w_true = max_sinr_vectors(rows, noise_power)
    w = np.array([w_believed, w_true])  # np.stack, minus its wrapper cost
    # Both designs are evaluated against the true received directions
    # (they broadcast across the design axis of ``w``).
    sinr = post_projection_sinr_batch(w, rows, noise_power)
    return sinr[0], sinr[1]


def solve_downlink_three_batch(
    h: np.ndarray,
    noise_power: float = 1.0,
    return_filters: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the 3-AP/3-client downlink alignment for a batch of groups.

    Follows Eqs. 5-7 exactly as the scalar solver does: express ``v1, v2``
    in terms of ``v0`` and close the loop at client 0, so ``v0`` is an
    eigenvector of the loop matrix.  Every eigenvector (sorted by
    descending ``|eigenvalue|``) is a valid candidate; all are decoded at
    rate level and the per-group best (first maximum) is kept — the same
    selection the leader AP performs in the scalar path.

    Parameters
    ----------
    h:
        ``(G, 3, 3, M, M)`` believed-channel batch.
    noise_power:
        Noise power used to score candidates (the sim's estimator uses 1.0).

    Returns
    -------
    (encodings, rates, sinrs):
        ``encodings`` is ``(G, 3, M)`` — the winning unit-norm encoding
        vectors per group; ``rates`` is ``(G,)`` estimated group throughput
        (Eq. 9); ``sinrs`` is ``(G, 3)`` the winning per-packet SINRs.
        With ``return_filters=True``, a fourth element — the winning
        candidates' ``(G, 3, M)`` believed-design receive filters, for
        :func:`downlink_transmit_sinrs_cached`.
    """
    # Loop matrix at client 0 (same association order as the scalar solver):
    #   left  = H(a2,k0) H(a2,k1)^-1 H(a0,k1)
    #   right = H(a1,k0) H(a1,k2)^-1 H(a0,k2)
    # The two inversions and the two triple products are stacked along one
    # more batch axis — per-slice LAPACK/BLAS calls are unchanged, so the
    # results are bit-identical to computing left and right separately.
    # All four pair stacks are sliced out of ONE fancy-index gather of
    # ``h`` (h[:, i, j] is the channel AP i -> client j):
    #   [H(a2,k1), H(a1,k2), H(a2,k0), H(a1,k0), H(a0,k1), H(a0,k2)]
    g_col, m_row, g_idx = _indices(h.shape[0], h.shape[-1])
    hp = h[:, _PAIR_AP, _PAIR_CLIENT]
    inv_pair = stacked_inv(hp[:, 0:2])  # [H(a2,k1)^-1, H(a1,k2)^-1]
    lr = hp[:, 2:4] @ inv_pair @ hp[:, 4:6]
    loop = stacked_inv(lr[:, 0]) @ lr[:, 1]

    values, vectors = stacked_eig(loop)  # (G, M), (G, M, M) column eigvecs
    order = (-np.abs(values)).argsort(axis=-1)
    # v0 candidates: (G, C, M) with C = M, best-|eigenvalue| first — the
    # inlined gather is ``np.take_along_axis(vectors, order[:, None, :], 2)``.
    v0 = normalize_encodings(vectors[g_col, m_row, order[:, None, :]].swapaxes(1, 2))

    # v1 = H(a1,k2)^-1 H(a0,k2) v0,  v2 = H(a2,k1)^-1 H(a0,k1) v0 (Eqs. 6-7),
    # again stacked: b[:, 0] maps v0 -> v1, b[:, 1] maps v0 -> v2.
    b = inv_pair[:, ::-1] @ hp[:, 5:3:-1]  # view: [H(a0,k2), H(a0,k1)]
    v12 = normalize_encodings(c_einsum("gxmn,gcn->gxcm", b, v0))
    v = np.concatenate((v0[:, :, None], v12.swapaxes(1, 2)), axis=2)  # (G, C, 3, M)

    sinrs, w = downlink_sinrs_batch(h, v, noise_power, return_filters=True)
    rates = np.add.reduce(np.log2(1.0 + sinrs), axis=-1)  # (G, C)
    best = rates.argmax(axis=1)  # first maximum, like the scalar loop
    if return_filters:
        return v[g_idx, best], rates[g_idx, best], sinrs[g_idx, best], w[g_idx, best]
    return v[g_idx, best], rates[g_idx, best], sinrs[g_idx, best]
