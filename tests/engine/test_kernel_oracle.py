"""The fused alignment-and-scoring kernel against a frozen copy of its
former self.

``repro.engine.batched`` scores each receiver from one gather of its
``[desired, interferer, interferer]`` rows.  The kernel it replaced
(copied below, frozen: do not edit it to follow the source) took the
desired and interference directions apart and ran the max-SINR design
and the post-projection SINR in separate passes.  Every digest of the
simulator rests on the two agreeing byte for byte, so every output is
compared with ``np.array_equal`` (NaN-free draws) and its dtype: the
flat solver with and without filters, the transmit decode, and the
evaluator's one route on a band, which lays every bin out as a row of
the flat solver's batch: its per-subcarrier solve, flat-anchor rescoring
and cached-filter transmit decode against the frozen band oracles.

The oracle calls numpy's public wrappers (``np.linalg.inv``/``eig``/
``solve``, ``np.einsum``) where the source calls the underlying gufuncs,
so it also pins that shortcut.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batched import (
    downlink_transmit_sinrs_cached,
    solve_downlink_three_batch,
)
from repro.engine.evaluator import BatchedGroupEvaluator

from reference.evaluator import StaticChannelSource

# --------------------------------------------------------------------- #
# Frozen oracle: the kernel as it stood before the fused scorer.
# --------------------------------------------------------------------- #

_RX = np.arange(3)
_OTHERS = np.array([[1, 2], [0, 2], [0, 1]])


def _oracle_normalize_encodings(vectors):
    vectors = np.asarray(vectors, dtype=complex)
    norms = np.sqrt(
        np.add.reduce((np.conj(vectors) * vectors).real, axis=-1, keepdims=True)
    )
    if np.any(norms < 1e-9):
        raise ValueError("cannot normalize a zero encoding vector")
    return vectors / norms


def _oracle_max_sinr_vectors(desired, interference, noise_power):
    desired = np.asarray(desired, dtype=complex)
    interference = np.asarray(interference, dtype=complex)
    m = desired.shape[-1]
    r = np.einsum("...ki,...kj->...ij", interference, np.conj(interference))
    r = r + noise_power * np.eye(m, dtype=complex)
    w = np.linalg.solve(r, desired[..., None])[..., 0]
    norms = np.sqrt(np.add.reduce((np.conj(w) * w).real, axis=-1, keepdims=True))
    return w / norms


def _oracle_post_projection_sinr_batch(w, desired, interference, noise_power,
                                       signal_power=1.0):
    w = np.asarray(w, dtype=complex)
    desired = np.asarray(desired, dtype=complex)
    interference = np.asarray(interference, dtype=complex)
    wc = np.conj(w)
    sig = signal_power * np.abs(np.einsum("...m,...m->...", wc, desired)) ** 2
    cross = np.einsum("...m,...km->...k", wc, interference)
    interf = signal_power * np.add.reduce(np.abs(cross) ** 2, axis=-1)
    noise = noise_power * np.add.reduce(np.abs(w) ** 2, axis=-1)
    return sig / (interf + noise)


def oracle_downlink_sinrs_batch(h, v, noise_power, return_filters=False):
    ht = np.swapaxes(h, 1, 2)
    if v.ndim > 3:
        extra = v.ndim - 3
        ht = ht.reshape(ht.shape[:1] + (1,) * extra + ht.shape[1:])
    d = np.einsum("...jimn,...in->...jim", ht, v)
    desired = d[..., _RX, _RX, :]
    interference = d[..., _RX[:, None], _OTHERS, :]
    w = _oracle_max_sinr_vectors(desired, interference, noise_power)
    sinrs = _oracle_post_projection_sinr_batch(w, desired, interference, noise_power)
    if return_filters:
        return sinrs, w
    return sinrs


def oracle_solve_downlink_three_batch(h, noise_power=1.0, return_filters=False):
    hp = h[:, (2, 1, 2, 1, 0, 0), (1, 2, 0, 0, 1, 2)]
    inv_pair = np.linalg.inv(hp[:, 0:2])
    lr = hp[:, 2:4] @ inv_pair @ hp[:, 4:6]
    loop = np.linalg.inv(lr[:, 0]) @ lr[:, 1]
    values, vectors = np.linalg.eig(loop)
    order = np.argsort(-np.abs(values), axis=-1)
    g_idx = np.arange(h.shape[0])
    m_idx = np.arange(h.shape[-1])
    v0 = np.swapaxes(
        vectors[g_idx[:, None, None], m_idx[None, :, None], order[:, None, :]], 1, 2
    )
    v0 = _oracle_normalize_encodings(v0)
    b = inv_pair[:, ::-1] @ hp[:, 5:3:-1]
    v12 = _oracle_normalize_encodings(np.einsum("gxmn,gcn->gxcm", b, v0))
    v = np.stack([v0, v12[:, 0], v12[:, 1]], axis=2)
    sinrs, w = oracle_downlink_sinrs_batch(h, v, noise_power, return_filters=True)
    rates = np.add.reduce(np.log2(1.0 + sinrs), axis=-1)
    best = np.argmax(rates, axis=1)
    g_idx = np.arange(h.shape[0])
    if return_filters:
        return v[g_idx, best], rates[g_idx, best], sinrs[g_idx, best], w[g_idx, best]
    return v[g_idx, best], rates[g_idx, best], sinrs[g_idx, best]


def oracle_solve_downlink_three_band(h, noise_power=1.0):
    g, b = h.shape[:2]
    v, rates, sinrs = oracle_solve_downlink_three_batch(
        h.reshape((g * b,) + h.shape[2:]), noise_power
    )
    return v.reshape(g, b, 3, -1), rates.reshape(g, b), sinrs.reshape(g, b, 3)


def oracle_downlink_sinrs_band(h, v, noise_power):
    g, b = h.shape[:2]
    v = np.broadcast_to(v, (g, b) + v.shape[2:])
    flat = oracle_downlink_sinrs_batch(
        h.reshape((g * b,) + h.shape[2:]),
        np.ascontiguousarray(v).reshape((g * b,) + v.shape[2:]),
        noise_power,
    )
    return flat.reshape(g, b, 3)


def oracle_downlink_transmit_sinrs_cached(h_true, v, w_believed, noise_power):
    d = np.einsum("...jimn,...in->...jim", np.swapaxes(h_true, -4, -3), v)
    desired = d[..., _RX, _RX, :]
    interference = d[..., _RX[:, None], _OTHERS, :]
    w_true = _oracle_max_sinr_vectors(desired, interference, noise_power)
    w = np.array([w_believed, w_true])
    sinr = _oracle_post_projection_sinr_batch(w, desired, interference, noise_power)
    return sinr[0], sinr[1]


def oracle_downlink_transmit_sinrs_band(h_true, h_believed, v, noise_power):
    n_bins = h_true.shape[0]
    v = np.broadcast_to(v, (n_bins,) + v.shape[1:])
    ht = np.stack([np.swapaxes(h_believed, 1, 2), np.swapaxes(h_true, 1, 2)])
    d = np.einsum("xbjimn,bin->xbjim", ht, v)
    desired = d[:, :, _RX, _RX]
    interference = d[:, :, _RX[:, None], _OTHERS]
    w = _oracle_max_sinr_vectors(desired, interference, noise_power)
    sinr = _oracle_post_projection_sinr_batch(
        w, desired[1:], interference[1:], noise_power
    )
    return sinr[0], sinr[1]


# --------------------------------------------------------------------- #
# Comparisons
# --------------------------------------------------------------------- #


def _channels(rng, shape, m):
    """Complex Gaussian channels with a per-link gain spread of 30 dB."""
    gain = 10.0 ** rng.uniform(-1.0, 2.0, size=shape + (1, 1))
    return np.sqrt(gain / 2) * (
        rng.standard_normal(shape + (m, m)) + 1j * rng.standard_normal(shape + (m, m))
    )


def _mirror_view(rng, g, m):
    """The solver's input as the evaluator hands it over: the
    ``swapaxes(1, 2)`` view of a client-major believed batch."""
    return np.swapaxes(_channels(rng, (g, 3, 3), m), 1, 2)


def _assert_same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert np.array_equal(a, b)


_noise = st.sampled_from([1.0, 0.1, 3.5])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(g=st.integers(1, 64), m=st.sampled_from([2, 3, 4]),
       filters=st.booleans(), noise=_noise, seed=st.integers(0, 2**32 - 1))
def test_flat_solver_matches_the_oracle(g, m, filters, noise, seed):
    h = _mirror_view(np.random.default_rng(seed), g, m)
    got = solve_downlink_three_batch(h, noise, return_filters=filters)
    want = oracle_solve_downlink_three_batch(h, noise, return_filters=filters)
    assert len(got) == (4 if filters else 3)
    _assert_same(got, want)


def _band_evaluator(h, noise, alignment):
    """An evaluator over the band batch ``h`` (``(G, B, 3, 3, M, M)``,
    ``h[g, :, i, j]`` AP ``i`` to client ``j`` of group ``g``) and the
    groups it holds: group ``g`` is clients ``3g, 3g + 1, 3g + 2``."""
    groups = [(3 * g, 3 * g + 1, 3 * g + 2) for g in range(h.shape[0])]
    channels = {
        (i, client): h[g, :, i, j]
        for g, group in enumerate(groups)
        for j, client in enumerate(group)
        for i in range(3)
    }
    source = StaticChannelSource(channels, (0, 1, 2))
    return BatchedGroupEvaluator(source, (0, 1, 2), noise, alignment), groups


def _entries(evaluator, groups):
    entries = [evaluator._cache[group] for group in groups]
    return [np.array([getattr(e, name) for e in entries])
            for name in ("encodings", "sinrs")]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(g=st.integers(1, 16), b=st.integers(1, 6), m=st.sampled_from([2, 3, 4]),
       noise=_noise, seed=st.integers(0, 2**32 - 1))
def test_band_route_matches_the_oracle(g, b, m, noise, seed):
    h = _channels(np.random.default_rng(seed), (g, b, 3, 3), m)
    # Per-subcarrier mode: every bin solved on its own.
    evaluator, groups = _band_evaluator(h, noise, "per_subcarrier")
    rates = evaluator.evaluate_many(groups)
    v, _, sinrs = oracle_solve_downlink_three_band(h, noise)
    _assert_same(_entries(evaluator, groups), [v, sinrs])
    assert rates == np.log2(1.0 + sinrs).sum(axis=-1).mean(axis=-1).tolist()
    # Flat-anchor mode: the anchor bin's encodings rescored on every bin.
    evaluator, groups = _band_evaluator(h, noise, "flat_anchor")
    rates = evaluator.evaluate_many(groups)
    v = oracle_solve_downlink_three_batch(h[:, b // 2], noise)[0][:, None]
    sinrs = oracle_downlink_sinrs_band(h, v, noise)
    _assert_same(_entries(evaluator, groups),
                 [np.broadcast_to(v, (g, b, 3, m)), sinrs])
    assert rates == np.log2(1.0 + sinrs).sum(axis=-1).mean(axis=-1).tolist()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(g=st.integers(1, 64), m=st.sampled_from([2, 3, 4]), noise=_noise,
       seed=st.integers(0, 2**32 - 1))
def test_cached_transmit_decode_matches_the_oracle(g, m, noise, seed):
    rng = np.random.default_rng(seed)
    h_bel = _mirror_view(rng, g, m)
    v, _, _, w_bel = oracle_solve_downlink_three_batch(h_bel, noise, return_filters=True)
    h_true = np.ascontiguousarray(h_bel + 0.1 * _channels(rng, (g, 3, 3), m))
    _assert_same(downlink_transmit_sinrs_cached(h_true, v, w_bel, noise),
                 oracle_downlink_transmit_sinrs_cached(h_true, v, w_bel, noise))
    # One group alone, with no leading axis, as the reference engine decodes.
    _assert_same(downlink_transmit_sinrs_cached(h_true[0], v[0], w_bel[0], noise),
                 oracle_downlink_transmit_sinrs_cached(h_true[0], v[0], w_bel[0], noise))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(b=st.integers(1, 8), m=st.sampled_from([2, 3, 4]), anchor=st.booleans(),
       noise=_noise, seed=st.integers(0, 2**32 - 1))
def test_band_transmit_decode_matches_the_oracle(b, m, anchor, noise, seed):
    rng = np.random.default_rng(seed)
    h_bel = _channels(rng, (b, 3, 3), m)
    h_true = h_bel + 0.1 * _channels(rng, (b, 3, 3), m)
    evaluator, (group,) = _band_evaluator(
        h_bel[None], noise, "flat_anchor" if anchor else "per_subcarrier"
    )
    v = oracle_solve_downlink_three_band(h_bel[None], noise)[0][0]
    if anchor:
        v = v[b // 2][None]
    _assert_same(evaluator.transmit_sinrs(group, h_true),
                 oracle_downlink_transmit_sinrs_band(h_true, h_bel, v, noise))


def test_zero_encoding_vector_still_raises():
    # A zero AP 0 -> client 2 channel zeroes the loop matrix's right-hand
    # product, so every v0 candidate maps onto a zero v1: the solver
    # must refuse the group, as before.
    bel = _channels(np.random.default_rng(7), (3, 3, 3), 2)
    bel[1, 2, 0] = 0.0
    h = np.swapaxes(bel, 1, 2)
    with pytest.raises(ValueError, match="zero encoding vector"):
        oracle_solve_downlink_three_batch(h)
    with pytest.raises(ValueError, match="zero encoding vector"):
        solve_downlink_three_batch(h)
