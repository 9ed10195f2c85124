"""MAC layer: PCF extension, frames, queues and concurrency algorithms."""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "association": ("AssociationTable", "ChannelUpdate", "LeaderAP", "SubordinateAP", "elect_leader"),
    "concurrency": (
        "BestOfTwo", "BruteForce", "ConcurrencySelector", "FifoGrouping", "make_selector", "score_groups",
    ),
    "frames": ("Ack", "Beacon", "CFEnd", "DataPollMetadata", "Grant", "GroupEntry", "make_group_entries"),
    "pcf": ("PCFConfig", "PCFCoordinator", "PCFStats"),
    "queueing": ("QueuedPacket", "TransmissionQueue"),
})
