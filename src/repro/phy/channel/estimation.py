"""Channel estimation from known preambles.

The paper (§8a) estimates uplink channels with "standard MIMO channel
estimation" on packets that are transmitted without concurrency (association
messages, acks, contention-period data).  With the orthogonal per-antenna
preambles of :mod:`repro.phy.preamble`, the least-squares estimate reduces
to a correlation:

    H_hat = Y P^H (P P^H)^{-1}

where ``Y`` is the ``(n_rx, L)`` received preamble block and ``P`` the
``(n_tx, L)`` transmitted preamble matrix.
"""

from __future__ import annotations

import numpy as np

from repro.utils.linalg import herm


def frobenius_norms(x: np.ndarray, batch_ndim: int = 0) -> np.ndarray:
    """Frobenius norm over all axes past the first ``batch_ndim``.

    The accumulation order is pinned: squared magnitudes are summed
    element-by-element in C order with a single sequential accumulator.
    ``np.linalg.norm`` delegates to BLAS dot products whose summation
    order (and therefore rounding) depends on the kernel and on whether
    the input is a single matrix or a stack — exactly the variability a
    bit-identity contract cannot tolerate.  With this helper, the norm
    of one ``(M, M)`` estimate and slice ``p`` of a stacked
    ``(P, M, M)`` batch perform the *same* float operations in the
    *same* order, so the scalar drift check and the columnar slot path's
    vectorised drift check agree to the last ulp.
    """
    x = np.asarray(x)
    flat = x.reshape(x.shape[:batch_ndim] + (-1,))
    if np.iscomplexobj(flat):
        sq = flat.real * flat.real + flat.imag * flat.imag
    else:
        sq = flat * flat
    acc = sq[..., 0]
    for k in range(1, sq.shape[-1]):
        acc = acc + sq[..., k]
    return np.sqrt(acc)


def estimate_channel(received: np.ndarray, preamble: np.ndarray) -> np.ndarray:
    """Least-squares MIMO channel estimate from a preamble burst.

    Parameters
    ----------
    received:
        ``(n_rx, L)`` received samples covering the preamble.
    preamble:
        ``(n_tx, L)`` known transmitted preamble matrix.

    Returns
    -------
    numpy.ndarray
        ``(n_rx, n_tx)`` channel estimate.
    """
    received = np.atleast_2d(np.asarray(received, dtype=complex))
    preamble = np.atleast_2d(np.asarray(preamble, dtype=complex))
    if received.shape[1] != preamble.shape[1]:
        raise ValueError("received block and preamble length differ")
    gram = preamble @ herm(preamble)
    return received @ herm(preamble) @ np.linalg.inv(gram)


def estimate_cfo(received: np.ndarray, transmitted: np.ndarray, block: int = 16) -> float:
    """Estimate the normalised CFO between two repeats of a known sequence.

    After wiping the data (``r[k] * conj(t[k]) ~ h * exp(j 2 pi cfo k)``),
    the rotation phase is measured on block averages (suppressing noise by
    ``1/sqrt(block)``) and the CFO is the least-squares slope of the
    unwrapped block phases.  This is substantially more robust at low SNR
    than per-sample phase increments.  Only the first receive antenna is
    used; CFO is a per-oscillator property so all antennas on one node
    share it.
    """
    rx = np.atleast_2d(np.asarray(received, dtype=complex))[0]
    tx = np.atleast_2d(np.asarray(transmitted, dtype=complex))[0]
    n = min(rx.size, tx.size)
    if n < 2:
        raise ValueError("need at least two samples to estimate CFO")
    rot = rx[:n] * np.conj(tx[:n])
    block = max(2, min(block, n // 2))
    centers = []
    phases = []
    for start in range(0, n - block + 1, block):
        total = complex(np.sum(rot[start : start + block]))
        if abs(total) < 1e-30:
            continue
        centers.append(start + (block - 1) / 2.0)
        phases.append(float(np.angle(total)))
    if len(phases) < 2:
        # Fall back to the two-halves estimator.
        half = n // 2
        first = complex(np.sum(rot[:half]))
        second = complex(np.sum(rot[half : 2 * half]))
        if abs(first) < 1e-30 or abs(second) < 1e-30:
            return 0.0
        return float(np.angle(second * np.conj(first)) / (2 * np.pi * half))
    unwrapped = np.unwrap(np.array(phases))
    slope, _ = np.polyfit(np.array(centers), unwrapped, 1)
    return float(slope / (2 * np.pi))


def drift_from(h: np.ndarray, reference: np.ndarray) -> float:
    """Relative Frobenius-norm change of estimate ``h`` against ``reference``.

    The leader AP must be told when "the channel's estimate has changed
    by more than a threshold value" (paper §7.1(c)).  Uses
    :func:`frobenius_norms` (sequential accumulation) so the columnar
    slot path's stacked drift check reproduces this value bit-for-bit.
    """
    denom = float(frobenius_norms(reference))
    if denom == 0:
        return float("inf")
    return float(frobenius_norms(h - reference)) / denom


class ChannelTracker:
    """Tracks per-link channel estimates with exponential smoothing.

    APs re-estimate the channel from every ack a client transmits (§8a);
    smoothing trades estimation noise against tracking speed.  Each
    estimate is a plain ``ndarray``, never modified once stored, so a
    holder of one keeps a frozen copy.  ``writes`` counts the calls that
    changed the estimates, which is how the ``fast`` engine tells that
    its tracking mirror (:class:`~repro.sim.events.CellStepper`) still
    matches.
    """

    def __init__(self, alpha: float = 0.7, drift_threshold: float = 0.1):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        # A NaN or infinite threshold would silently never report drift
        # (§7.1(c)); ``run(track=False)`` is the way to stop tracking.
        if not 0.0 <= drift_threshold < np.inf:
            raise ValueError(
                "drift_threshold must be finite and non-negative, "
                f"got {drift_threshold!r}"
            )
        self.alpha = alpha
        self.drift_threshold = drift_threshold
        self._estimates: dict = {}
        self.writes = 0

    def update(self, key, h_new: np.ndarray) -> bool:
        """Fold in a fresh estimate; returns True when drift is significant.

        A True return is the trigger for a subordinate AP to notify the
        leader AP of a channel change (§7.1(c)).
        """
        h_new = np.asarray(h_new, dtype=complex)
        current = self._estimates.get(key)
        if current is None:
            # A key held nothing for starts from this estimate, and reports.
            self._estimates[key] = h_new
            self.writes += 1
            return True
        smoothed = self.alpha * h_new + (1 - self.alpha) * current
        self._estimates[key] = smoothed
        self.writes += 1
        return drift_from(smoothed, current) > self.drift_threshold

    def store(self, keys, estimates) -> None:
        """Overwrite many links' estimates at once (no drift verdicts)."""
        self._estimates.update(zip(keys, estimates))
        self.writes += 1

    def forget(self, key) -> None:
        """Drop a link's estimate (the peer disassociated).

        The next :meth:`update` for the key starts from scratch instead
        of smoothing the fresh sounding into pre-departure state.
        """
        self._estimates.pop(key, None)
        self.writes += 1

    def get(self, key) -> np.ndarray:
        """Return the current estimate for a link key."""
        return self._estimates[key]

    def __contains__(self, key) -> bool:
        return key in self._estimates
