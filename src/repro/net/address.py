"""IP addresses and the DHCP-like address pool.

The paper's motivating problem is nodes "connected intermittently with
temporary network addresses": every time a node dials in it may receive a
different IP.  :class:`AddressPool` reproduces that: each
:meth:`AddressPool.lease` hands out the next free address in a rotating
scan, so a host that disconnects and reconnects almost always comes back
under a *different* address — which is exactly the situation LIGLO exists
to solve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AddressPoolExhausted


@dataclass(frozen=True, slots=True)
class IPAddress:
    """A simulated IPv4 address (value object; compared by string value).

    ``__eq__`` and ``__hash__`` are written out rather than generated: the
    dataclass versions build a one-field tuple per call, and an address is
    hashed several times per packet (route, link and dedup lookups).
    """

    value: str

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        return self.value


class AddressPool:
    """Leases simulated IP addresses, DHCP style.

    Addresses are formed as ``prefix.x.y`` over ``size`` slots.  Leasing
    scans forward from the slot after the most recent lease, so released
    addresses are not immediately reused; a reconnecting host therefore
    observes a changed address, as dial-up/DHCP clients did.
    """

    #: ``prefix.x.y`` has two free octets.
    MAX_SIZE = 256 * 256

    def __init__(self, prefix: str = "10.0", size: int = 4096):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        if size > self.MAX_SIZE:
            raise ValueError(f"pool size must be <= {self.MAX_SIZE}, got {size}")
        self.prefix = prefix
        self.size = size
        self._leased: set[int] = set()
        self._cursor = 0

    def _slot_to_address(self, slot: int) -> IPAddress:
        high, low = divmod(slot, 256)
        return IPAddress(f"{self.prefix}.{high}.{low}")

    def lease(self) -> IPAddress:
        """Lease the next free address; raises when the pool is exhausted."""
        if len(self._leased) >= self.size:
            raise AddressPoolExhausted(
                f"all {self.size} addresses in {self.prefix}.* are leased"
            )
        slot = self._cursor
        while slot in self._leased:
            slot = (slot + 1) % self.size
        self._leased.add(slot)
        self._cursor = (slot + 1) % self.size
        return self._slot_to_address(slot)

    def release(self, address: IPAddress) -> None:
        """Return a leased address to the pool (idempotence is an error)."""
        slot = self._address_to_slot(address)
        if slot not in self._leased:
            raise ValueError(f"{address} is not currently leased")
        self._leased.remove(slot)

    def is_leased(self, address: IPAddress) -> bool:
        """True when the address is currently leased."""
        try:
            return self._address_to_slot(address) in self._leased
        except ValueError:
            return False

    @property
    def leased_count(self) -> int:
        """Number of addresses currently out on lease."""
        return len(self._leased)

    def _address_to_slot(self, address: IPAddress) -> int:
        head, _, rest = address.value.rpartition(".")
        head_prefix, _, high = head.rpartition(".")
        if head_prefix != self.prefix:
            raise ValueError(f"{address} is not from pool {self.prefix}.*")
        slot = int(high) * 256 + int(rest)
        if not 0 <= slot < self.size:
            raise ValueError(f"{address} is outside pool of size {self.size}")
        return slot
