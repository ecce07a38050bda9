"""Tests for the peer table."""

import pytest

from repro.core.peers import PeerInfo, PeerTable
from repro.errors import PeerTableError
from repro.ids import BPID
from repro.net.address import IPAddress


def bpid(n):
    return BPID("liglo", n)


def addr(n):
    return IPAddress(f"10.0.0.{n}")


class TestPeerTable:
    def test_add_and_query(self):
        table = PeerTable(max_peers=2)
        table.add(bpid(1), addr(1), now=5.0)
        assert bpid(1) in table
        assert len(table) == 1
        assert table.get(bpid(1)).added_at == 5.0
        assert table.get(bpid(1)).address == addr(1)

    def test_capacity_enforced(self):
        table = PeerTable(max_peers=1)
        table.add(bpid(1), addr(1))
        with pytest.raises(PeerTableError):
            table.add(bpid(2), addr(2))

    def test_duplicate_rejected(self):
        table = PeerTable(max_peers=3)
        table.add(bpid(1), addr(1))
        with pytest.raises(PeerTableError):
            table.add(bpid(1), addr(2))

    def test_remove(self):
        table = PeerTable(max_peers=2)
        table.add(bpid(1), addr(1))
        table.remove(bpid(1))
        assert bpid(1) not in table
        with pytest.raises(PeerTableError):
            table.remove(bpid(1))

    def test_replace_all(self):
        table = PeerTable(max_peers=3)
        table.add(bpid(1), addr(1))
        table.replace_all(
            [PeerInfo(bpid(2), addr(2)), PeerInfo(bpid(3), addr(3))]
        )
        assert table.bpids() == [bpid(2), bpid(3)]

    def test_replace_all_capacity(self):
        table = PeerTable(max_peers=1)
        with pytest.raises(PeerTableError):
            table.replace_all([PeerInfo(bpid(1), addr(1)), PeerInfo(bpid(2), addr(2))])

    def test_replace_all_duplicates_rejected(self):
        table = PeerTable(max_peers=3)
        with pytest.raises(PeerTableError):
            table.replace_all([PeerInfo(bpid(1), addr(1)), PeerInfo(bpid(1), addr(2))])

    def test_update_address(self):
        table = PeerTable(max_peers=1)
        table.add(bpid(1), addr(1))
        table.update_address(bpid(1), addr(9))
        assert table.get(bpid(1)).address == addr(9)
        with pytest.raises(PeerTableError):
            table.update_address(bpid(2), addr(2))

    def test_is_full(self):
        table = PeerTable(max_peers=1)
        assert not table.is_full
        table.add(bpid(1), addr(1))
        assert table.is_full

    def test_invalid_capacity(self):
        with pytest.raises(PeerTableError):
            PeerTable(max_peers=0)
