"""Primary-key hash index.

Kept in host memory: the paper's measurements concern *data-page* I/O,
and Shore-MT's index pages would add a second page-update stream that
the measurements do not isolate.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.storage.heap import RID


class DuplicateKeyError(KeyError):
    """Unique-index violation."""


class HashIndex:
    """Unique hash index: key -> RID."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._map: dict[Any, RID] = {}

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, key: Any) -> bool:
        return key in self._map

    def insert(self, key: Any, rid: RID) -> None:
        """Register a key (unique).

        Raises:
            DuplicateKeyError: if the key is already present.
        """
        if key in self._map:
            raise DuplicateKeyError(f"duplicate key {key!r} in index {self.name}")
        self._map[key] = rid

    def get(self, key: Any) -> RID:
        """Look up a key (KeyError if absent)."""
        return self._map[key]

    def delete(self, key: Any) -> None:
        """Remove a key (KeyError if absent)."""
        del self._map[key]

    def keys(self) -> Iterator[Any]:
        """Iterate over indexed keys."""
        return iter(self._map)
