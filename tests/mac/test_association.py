"""Tests for association, channel updates and leader election."""

import numpy as np
import pytest

from repro.mac.association import (
    AssociationTable,
    ChannelUpdate,
    LeaderAP,
    SubordinateAP,
    elect_leader,
)
from repro.phy.channel.model import rayleigh_channel


def associate(leader, client, estimates):
    """One client's association: a one-client sounding pass."""
    leader.handle_associations([client], list(estimates), [list(estimates.values())])


class TestElection:
    def test_lowest_id_wins(self):
        assert elect_leader([7, 3, 9]) == 3

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            elect_leader([])


class TestAssociationTable:
    def test_dense_ids(self):
        t = AssociationTable()
        ids = [t.associate(c).association_id for c in (100, 200, 300)]
        assert ids == [0, 1, 2]

    def test_idempotent(self):
        t = AssociationTable()
        a = t.associate(5)
        b = t.associate(5)
        assert a is b and len(t) == 1

    def test_id_reuse_after_disassociation(self):
        t = AssociationTable()
        for c in (1, 2, 3):
            t.associate(c)
        t.disassociate(2)
        assert t.associate(9).association_id == 1  # the freed id

    def test_disassociate_unknown_raises(self):
        with pytest.raises(KeyError):
            AssociationTable().disassociate(4)

    def test_clients_sorted(self):
        t = AssociationTable()
        for c in (5, 1, 3):
            t.associate(c)
        assert t.clients() == [1, 3, 5]


class TestSubordinate:
    def test_first_observation_reports(self, rng):
        ap = SubordinateAP(ap_id=1)
        update = ap.observe(7, rayleigh_channel(2, 2, rng))
        assert update is not None and update.ap_id == 1

    def test_stable_channel_silent(self, rng):
        ap = SubordinateAP(ap_id=1, drift_threshold=0.2)
        h = rayleigh_channel(2, 2, rng)
        ap.observe(7, h)
        assert ap.observe(7, h) is None

    def test_big_change_reports(self, rng):
        ap = SubordinateAP(ap_id=1, drift_threshold=0.1)
        ap.observe(7, rayleigh_channel(2, 2, rng))
        update = ap.observe(7, 10 * rayleigh_channel(2, 2, rng))
        assert update is not None

    def test_update_bytes(self, rng):
        u = ChannelUpdate(ap_id=1, client_id=2, h=rayleigh_channel(2, 2, rng))
        assert u.nbytes() == 4 + 8 * 4


class TestLeader:
    def _leader(self):
        return LeaderAP(ap_id=0, ap_ids=[0, 1, 2])

    def test_wrong_leader_rejected(self):
        with pytest.raises(ValueError):
            LeaderAP(ap_id=2, ap_ids=[0, 1, 2])

    def test_association_requires_all_estimates(self, rng):
        leader = self._leader()
        with pytest.raises(ValueError):
            associate(leader, 7, {0: rayleigh_channel(2, 2, rng)})

    def test_association_stores_channels(self, rng):
        leader = self._leader()
        estimates = {ap: rayleigh_channel(2, 2, rng) for ap in (0, 1, 2)}
        associate(leader, 7, estimates)
        cmap = leader.channel_map(7)
        assert set(cmap) == {0, 1, 2}
        assert np.allclose(cmap[1], estimates[1])

    def test_update_refreshes_and_accounts(self, rng):
        leader = self._leader()
        associate(leader, 7, {ap: rayleigh_channel(2, 2, rng) for ap in (0, 1, 2)})
        new_h = rayleigh_channel(2, 2, rng)
        leader.handle_update(ChannelUpdate(ap_id=1, client_id=7, h=new_h))
        assert np.allclose(leader.channel_map(7)[1], new_h)
        assert leader.update_bytes == 4 + 32

    def test_update_for_unknown_client_raises(self, rng):
        leader = self._leader()
        with pytest.raises(KeyError):
            leader.handle_update(
                ChannelUpdate(ap_id=1, client_id=9, h=rayleigh_channel(2, 2, rng))
            )

    def test_end_to_end_tracking(self, rng):
        """Subordinates observe; only drifts reach the leader."""
        leader = self._leader()
        subordinate = SubordinateAP(ap_id=1, drift_threshold=0.15)
        h = rayleigh_channel(2, 2, rng)
        associate(leader, 7, {0: h, 1: h, 2: h})
        reports = 0
        for step in range(10):
            # Slow drift: small perturbation each step.
            h = h + 0.02 * rayleigh_channel(2, 2, rng)
            update = subordinate.observe(7, h)
            if update is not None:
                leader.handle_update(update)
                reports += 1
        assert 1 <= reports < 10  # some reports, but far from every frame


class TestCsiGuard:
    """The leader's corrupt-CSI guard and quarantine lifecycle."""

    def _leader_with_client(self, rng, csi_guard=4.0):
        leader = LeaderAP(ap_id=0, ap_ids=[0, 1, 2], csi_guard=csi_guard)
        estimates = {ap: rayleigh_channel(2, 2, rng) for ap in (0, 1, 2)}
        associate(leader, 7, estimates)
        return leader, estimates

    def test_plausible_update_accepted(self, rng):
        leader, estimates = self._leader_with_client(rng)
        drift = estimates[1] + 0.01 * rayleigh_channel(2, 2, rng)
        assert leader.handle_update(ChannelUpdate(ap_id=1, client_id=7, h=drift))
        assert not leader.is_quarantined(7)
        np.testing.assert_array_equal(leader.channel_map(7)[1], drift)

    def test_wildly_implausible_update_quarantines(self, rng):
        leader, estimates = self._leader_with_client(rng)
        version = leader.channel_version(7)
        garbage = estimates[1] + 100.0 * rayleigh_channel(2, 2, rng)
        update = ChannelUpdate(ap_id=1, client_id=7, h=garbage)
        assert not leader.handle_update(update)
        assert leader.is_quarantined(7)
        assert leader.quarantined_clients() == [7]
        # Believed map and version untouched: the engine keeps the last
        # good estimate and its memoised solutions stay valid.
        np.testing.assert_array_equal(leader.channel_map(7)[1], estimates[1])
        assert leader.channel_version(7) == version
        # Bytes accounted either way: the wire carried the annotation.
        assert leader.update_bytes == update.nbytes()

    def test_non_finite_update_always_rejected(self, rng):
        leader, estimates = self._leader_with_client(rng)
        bad = estimates[1].copy()
        bad[0, 0] = np.nan
        assert not leader.handle_update(ChannelUpdate(ap_id=1, client_id=7, h=bad))
        assert leader.is_quarantined(7)

    def test_plausible_report_clears_quarantine(self, rng):
        leader, estimates = self._leader_with_client(rng)
        garbage = estimates[1] + 100.0 * rayleigh_channel(2, 2, rng)
        leader.handle_update(ChannelUpdate(ap_id=1, client_id=7, h=garbage))
        assert leader.is_quarantined(7)
        honest = estimates[1] + 0.01 * rayleigh_channel(2, 2, rng)
        assert leader.handle_update(ChannelUpdate(ap_id=1, client_id=7, h=honest))
        assert not leader.is_quarantined(7)

    def test_reassociation_clears_quarantine(self, rng):
        leader, estimates = self._leader_with_client(rng)
        garbage = estimates[1] + 100.0 * rayleigh_channel(2, 2, rng)
        leader.handle_update(ChannelUpdate(ap_id=1, client_id=7, h=garbage))
        associate(leader, 7, {ap: rayleigh_channel(2, 2, rng) for ap in (0, 1, 2)})
        assert not leader.is_quarantined(7)

    def test_no_guard_trusts_everything(self, rng):
        """csi_guard=None is the pre-fault behaviour, bit for bit."""
        leader, estimates = self._leader_with_client(rng, csi_guard=None)
        garbage = estimates[1] + 100.0 * rayleigh_channel(2, 2, rng)
        assert leader.handle_update(ChannelUpdate(ap_id=1, client_id=7, h=garbage))
        assert not leader.is_quarantined(7)


class TestSoundingPass:
    """A whole sounding pass registers in one call."""

    def test_pass_equals_one_client_at_a_time(self, rng):
        soundings = [[rayleigh_channel(2, 2, rng) for _ in range(3)] for _ in range(4)]
        batch = LeaderAP(ap_id=0, ap_ids=[0, 1, 2])
        batch.handle_associations([5, 3, 8, 5], [0, 1, 2], soundings)
        single = LeaderAP(ap_id=0, ap_ids=[0, 1, 2])
        for c, heard in zip([5, 3, 8, 5], soundings):
            associate(single, c, dict(zip([0, 1, 2], heard)))
        assert batch.version_epoch == single.version_epoch == 4
        for c in (3, 5, 8):
            assert batch.channel_version(c) == single.channel_version(c)
            assert (batch.table.record(c).association_id
                    == single.table.record(c).association_id)
            for ap in (0, 1, 2):
                np.testing.assert_array_equal(
                    batch.channel_map(c)[ap], single.channel_map(c)[ap]
                )

    def test_pass_missing_an_ap_registers_nobody(self, rng):
        leader = LeaderAP(ap_id=0, ap_ids=[0, 1, 2])
        with pytest.raises(ValueError, match=r"missing \[2\]"):
            leader.handle_associations(
                [7, 8], [0, 1], [[rayleigh_channel(2, 2, rng)] * 2] * 2
            )
        assert len(leader.table) == 0 and leader.version_epoch == 0

    @pytest.mark.parametrize("shape", ["short_row", "missing_client"])
    def test_ragged_pass_registers_nobody(self, rng, shape):
        """One estimate short anywhere in the pass fails it whole, before
        any client is registered with a partial channel map."""
        soundings = [[rayleigh_channel(2, 2, rng) for _ in range(3)] for _ in range(3)]
        if shape == "short_row":
            soundings[2] = soundings[2][:2]
        else:
            soundings = soundings[:2]
        leader = LeaderAP(ap_id=0, ap_ids=[0, 1, 2])
        with pytest.raises(ValueError, match=r"one estimate per \(client, AP\)"):
            leader.handle_associations([7, 8, 9], [0, 1, 2], soundings)
        assert len(leader.table) == 0 and leader.version_epoch == 0
