"""A small caching registry for generated datasets.

Benchmarks re-use the same event sets across many configurations; the
registry memoizes generation in memory, keyed by profile name, seed
offset and scale.  To keep a generated set on disk, write it with
``repro-temporal generate --out x.tcsr`` and open the artifact.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.datasets.profiles import PROFILES, DatasetProfile, get_profile
from repro.events.event_set import TemporalEventSet

__all__ = ["DatasetRegistry", "default_registry"]


class DatasetRegistry:
    """Memoizing dataset factory."""

    def __init__(self) -> None:
        self._memory: Dict[Tuple[str, int, float], TemporalEventSet] = {}

    def get(
        self, name: str, seed_offset: int = 0, scale: float = 1.0
    ) -> TemporalEventSet:
        """Return the event set for profile ``name``, generating it at most
        once per (name, seed_offset, scale)."""
        key = (name, seed_offset, float(scale))
        if key not in self._memory:
            self._memory[key] = get_profile(name).generate(
                seed_offset=seed_offset, scale=scale
            )
        return self._memory[key]

    def profile(self, name: str) -> DatasetProfile:
        return get_profile(name)

    def names(self):
        return list(PROFILES)

    def clear(self) -> None:
        self._memory.clear()


_DEFAULT: Optional[DatasetRegistry] = None


def default_registry() -> DatasetRegistry:
    """Process-wide registry (in-memory only)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = DatasetRegistry()
    return _DEFAULT
