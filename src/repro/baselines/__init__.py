"""Baselines the paper compares IAC against."""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "dot11_mimo": ("Dot11Link", "best_ap_link", "per_client_rates", "round_robin_rate"),
    "tdma": ("TDMAComparison", "alternate", "compare_schemes"),
})
