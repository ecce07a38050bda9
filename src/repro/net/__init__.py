"""Simulated network substrate.

Models a LAN of :class:`Host`s with leased (possibly changing) IP
addresses, per-host CPU thread pools, sender-side NIC transmission
queues, and latency/bandwidth links.  Payloads are really encoded as wire
frames (:mod:`repro.net.codec`) so transmission cost reflects true
message sizes.
"""

from repro.net.address import AddressPool, IPAddress
from repro.net.link import LinkModel
from repro.net.message import Packet
from repro.net.network import Host, Network

__all__ = [
    "IPAddress",
    "AddressPool",
    "LinkModel",
    "Packet",
    "Host",
    "Network",
]
