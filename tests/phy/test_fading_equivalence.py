"""The stacked fading network against the per-link oracle, network for network.

:class:`~repro.sim.columnar.ColumnarFadingNetwork` (the ``fast`` engine's
flat channel substrate) must draw exactly what
:class:`~repro.phy.channel.timevarying.FadingNetwork` (the ``reference``
engine's) draws: the same matrices from the same shared generator,
leaving the generator in the same state, after construction and after
every kind of step and mobility update — and it must refuse the same bad
inputs with the same errors.  The simulation digests pin this only
indirectly; here the two networks are compared directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.channel.timevarying import FadingNetwork
from repro.sim.columnar import ColumnarFadingNetwork

RHO = 0.98


@st.composite
def deployments(draw):
    """Pairs (with reversed duplicates and self-pairs mixed in) and gains.

    Gains are keyed in either orientation or left out (default 1.0), so
    the network's lookup rule is exercised along with the draws.
    """
    n_aps = draw(st.integers(1, 4))
    n_clients = draw(st.integers(1, 6))
    aps = list(range(n_aps))
    clients = list(range(100, 100 + n_clients))
    pairs = [(a, c) for a in aps for c in clients]
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))  # duplicates
    pairs = [
        (b, a) if flip else (a, b)
        for (a, b), flip in zip(
            pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                 max_size=len(pairs)))
        )
    ]
    pairs.append((aps[0], aps[0]))  # a self-pair is skipped
    gains = {}
    for a, c in ((a, c) for a in aps for c in clients):
        gain = draw(st.one_of(st.none(), st.floats(1e-3, 1e3)))
        if gain is not None:
            gains[(c, a) if draw(st.booleans()) else (a, c)] = gain
    return aps, clients, pairs, gains


def _build(pairs, m, gains, seed, rho=RHO):
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    ref = FadingNetwork(pairs, n_antennas=m, rho=rho, gains=gains, rng=rngs[0])
    col = ColumnarFadingNetwork(pairs, n_antennas=m, rho=rho, gains=gains,
                                rng=rngs[1])
    return ref, col, rngs


def _assert_same(ref, col, rngs, aps, clients):
    assert col.n_bins == ref.n_bins == 1
    for a in aps:
        for c in clients:
            for tx, rx in ((a, c), (c, a)):
                assert np.array_equal(col.channel(tx, rx), ref.channel(tx, rx))
                assert np.array_equal(
                    col.channel_bins(tx, rx), ref.channel_bins(tx, rx)
                )
                assert col.link_rho(tx, rx) == ref.link_rho(tx, rx)
    # One gather of every link, either way round (clients to APs reads
    # each stacked row transposed).
    for tx, rx in ((aps, clients), (clients, aps)):
        grid = col.channel_grid(tx, rx)
        assert grid.shape == (len(rx), len(tx)) + grid.shape[2:]
        assert np.array_equal(grid, ref.channel_grid(tx, rx))
    for node in aps + clients:
        assert col.node_rho(node) == ref.node_rho(node)
    assert rngs[1].bit_generator.state == rngs[0].bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    deployment=deployments(),
    m=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    moves=st.lists(
        st.tuples(st.integers(0, 200), st.floats(0.0, 1.0)), max_size=3
    ),
    n_multi=st.integers(2, 5),
    n_block=st.integers(0, 6),
)
def test_stacked_network_equals_per_link_network(
    deployment, m, seed, moves, n_multi, n_block
):
    aps, clients, pairs, gains = deployment
    nodes = aps + clients
    ref, col, rngs = _build(pairs, m, gains, seed)
    _assert_same(ref, col, rngs, aps, clients)

    for pick, rho in moves:  # mobility overrides, min-of-endpoints rule
        node = nodes[pick % len(nodes)]
        ref.set_node_rho(node, rho)
        col.set_node_rho(node, rho)
        _assert_same(ref, col, rngs, aps, clients)

    ref.step()
    col.step()
    _assert_same(ref, col, rngs, aps, clients)

    ref.step(n_multi)  # link-major: each link draws all its innovations
    col.step(n_multi)
    _assert_same(ref, col, rngs, aps, clients)

    ref.step(0)
    col.step(0)
    _assert_same(ref, col, rngs, aps, clients)

    # step_block is n single steps, snapshotting some rows at kept offsets.
    keep = list(range(0, n_block, 2))
    keys = sorted(col.rows)
    keep_keys = keys[::2]
    keep_rows = np.array([col.rows[k] for k in keep_keys], dtype=np.intp)
    snap = np.empty((len(keep), len(keep_rows), m, m), dtype=complex)
    col.step_block(n_block, keep, keep_rows, snap)
    kept = 0
    for i in range(n_block):
        ref.step()
        if i in keep:
            for j, key in enumerate(keep_keys):
                assert np.array_equal(snap[kept, j], ref.channel(*key))
            kept += 1
    _assert_same(ref, col, rngs, aps, clients)


def test_reads_are_frozen_views_of_each_instant():
    # Trackers and the leader hold channel reads as estimates: a step
    # must never change a matrix someone already read.
    ref, col, _ = _build([(0, 100), (1, 100)], 2, None, seed=7)
    before = col.channel(0, 100)
    kept = before.copy()
    col.step()
    col.step(3)
    col.step_block(4, [], np.empty(0, dtype=np.intp),
                   np.empty((0, 0, 2, 2), dtype=complex))
    assert np.array_equal(before, kept)
    assert not np.array_equal(col.channel(0, 100), kept)


@pytest.mark.parametrize("rho", [-0.1, 1.5])
def test_rho_out_of_range_is_refused_alike(rho):
    for cls in (FadingNetwork, ColumnarFadingNetwork):
        with pytest.raises(ValueError, match="rho must be in"):
            cls([(0, 100)], n_antennas=2, rho=rho, rng=0)
        net = cls([(0, 100)], n_antennas=2, rng=0)
        with pytest.raises(ValueError, match="rho must be in"):
            net.set_node_rho(100, rho)


@pytest.mark.parametrize("gain", [0.0, -1.0])
def test_non_positive_gain_is_refused_alike(gain):
    pairs = [(0, 100), (1, 100)]
    for cls in (FadingNetwork, ColumnarFadingNetwork):
        with pytest.raises(ValueError, match="gain must be positive"):
            cls(pairs, n_antennas=2, gains={(1, 100): gain}, rng=0)


@pytest.mark.parametrize("gain", [0.0, -1.0, np.nan, np.inf])
def test_a_gain_that_is_not_positive_and_finite_is_refused_everywhere(gain):
    """NaN and inf used to build a network of NaN channels (the wideband
    network took non-positive gains too)."""
    from repro.phy.channel.provider import WidebandFadingNetwork

    pairs = [(0, 100), (1, 100)]
    for cls in (FadingNetwork, ColumnarFadingNetwork, WidebandFadingNetwork):
        with pytest.raises(ValueError, match="gain must be positive"):
            cls(pairs, n_antennas=2, gains={(100, 1): gain}, rng=0)


def test_negative_steps_are_refused_alike():
    for cls in (FadingNetwork, ColumnarFadingNetwork):
        net = cls([(0, 100)], n_antennas=2, rng=0)
        with pytest.raises(ValueError, match="cannot step backwards"):
            net.step(-1)
    col = ColumnarFadingNetwork([(0, 100)], n_antennas=2, rng=0)
    with pytest.raises(ValueError, match="cannot step backwards"):
        col.step_block(-1, [], np.empty(0, dtype=np.intp),
                       np.empty((0, 0, 2, 2), dtype=complex))
