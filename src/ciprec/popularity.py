"""Global-popularity baseline and cold-start fallback."""

from __future__ import annotations

from ciprec.ingest import ProfileStore


class PopularityModel:
    """Recommends the globally most-consumed items, ties by ascending
    item id, excluding what the user already consumed. The ranking is
    :meth:`ProfileStore.popular`, every other model's fallback."""

    kind = "popularity"

    def __init__(self, store: ProfileStore):
        self.profiles = store

    @classmethod
    def train(cls, store: ProfileStore) -> "PopularityModel":
        return cls(store)

    def observe(self, batches: dict[int, list[tuple[int, int]]]) -> None:
        self.profiles.extend(batches)

    def recommend(self, u: int, n: int) -> list[int]:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        prof = self.profiles.get(u)
        return self.profiles.popular(n, prof.items if prof else ())

    @property
    def params(self) -> dict:
        return {}
