"""Wired-network substrate: nodes and the Ethernet hub backplane."""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ethernet": ("EthernetHub", "HubFrame", "virtual_mimo_sample_bytes"),
    "node": ("AccessPoint", "Client", "Node"),
})
