"""MIMO signal processing: max-SINR detection, encoding-vector
normalisation, the eigenmode baseline and rate metrics."""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "capacity": ("jain_fairness", "multiplexing_slope", "rate_from_snrs"),
    "detection": ("post_projection_sinr",),
    "eigenmode": ("Eigenmodes", "best_ap_eigenmode_rates", "eigenmode_link", "waterfill"),
})
