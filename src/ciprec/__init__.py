"""Incremental implicit-feedback recommenders over consumed item packs."""

from ciprec.ingest import (
    EventLog,
    ParseError,
    ProfileStore,
    UserProfile,
    all_cips,
    build_profiles,
    pack_arrays,
    parse_events,
    temporal_split,
)

__all__ = [
    "EventLog",
    "ParseError",
    "ProfileStore",
    "UserProfile",
    "all_cips",
    "build_profiles",
    "pack_arrays",
    "parse_events",
    "temporal_split",
]

__version__ = "0.1.0"
