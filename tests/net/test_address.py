"""Tests for the DHCP-like address pool."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressPoolExhausted
from repro.net.address import AddressPool, IPAddress


class TestAddressPool:
    def test_leases_are_distinct(self):
        pool = AddressPool(size=100)
        addresses = [pool.lease() for _ in range(100)]
        assert len(set(addresses)) == 100

    def test_exhaustion_raises(self):
        pool = AddressPool(size=2)
        pool.lease()
        pool.lease()
        with pytest.raises(AddressPoolExhausted):
            pool.lease()

    def test_release_then_lease_gives_different_address(self):
        """Reconnecting hosts should usually see a *new* address."""
        pool = AddressPool(size=16)
        first = pool.lease()
        pool.release(first)
        second = pool.lease()
        assert second != first

    def test_released_address_eventually_reused(self):
        pool = AddressPool(size=4)
        first = pool.lease()
        pool.release(first)
        seen = {pool.lease() for _ in range(3)}
        # The fourth lease must wrap around to the released slot.
        assert pool.lease() == first or first in seen

    def test_release_unleased_raises(self):
        pool = AddressPool()
        with pytest.raises(ValueError):
            pool.release(IPAddress("10.0.0.0"))

    def test_release_foreign_address_raises(self):
        pool = AddressPool()
        with pytest.raises(ValueError):
            pool.release(IPAddress("192.168.0.1"))

    def test_address_format(self):
        pool = AddressPool(size=300)
        first = pool.lease()
        assert first.value == "10.0.0.0"
        for _ in range(255):
            last = pool.lease()
        assert last.value == "10.0.0.255"
        assert pool.lease().value == "10.0.1.0"

    def test_size_validation(self):
        with pytest.raises(ValueError):
            AddressPool(size=0)
        with pytest.raises(ValueError):
            AddressPool(size=100_000)

    @given(st.integers(min_value=1, max_value=200))
    def test_lease_release_cycles_never_collide(self, cycles):
        pool = AddressPool(size=8)
        held: list[IPAddress] = []
        for i in range(cycles):
            if len(held) == 8 or (held and i % 3 == 0):
                pool.release(held.pop(0))
            else:
                address = pool.lease()
                assert address not in held
                held.append(address)
