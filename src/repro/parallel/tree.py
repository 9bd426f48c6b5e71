"""Process-tree descriptions.

:class:`FanoutVector` captures the paper's notation ``{fo1, fo2}`` with the
process-count formula of Sec. V (``N = fo1 + fo1*fo2`` for two levels).
What tree an execution actually built — average fanouts per level, add/drop
stage counts, the average fanouts of Fig 21 — is counted as it is built,
in :class:`~repro.obs.run.TreeStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import PlanError


@dataclass(frozen=True)
class FanoutVector:
    """The per-level fanouts of a manual process tree.

    A trailing 0 fuses the level into the previous one (flat tree, Fig 14).
    """

    fanouts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.fanouts:
            raise PlanError("fanout vector cannot be empty")
        if self.fanouts[0] <= 0:
            raise PlanError("first fanout must be positive")
        if any(f < 0 for f in self.fanouts):
            raise PlanError("fanouts cannot be negative")

    @property
    def effective(self) -> tuple[int, ...]:
        """Fanouts after flat-tree fusion (zeros removed)."""
        return tuple(f for f in self.fanouts if f > 0)

    def total_processes(self) -> int:
        """N = fo1 + fo1*fo2 + fo1*fo2*fo3 + ... (Sec. V)."""
        total = 0
        layer = 1
        for fanout in self.effective:
            layer *= fanout
            total += layer
        return total

    def is_flat(self) -> bool:
        return len(self.fanouts) > 1 and all(f == 0 for f in self.fanouts[1:])

    def is_balanced(self) -> bool:
        effective = self.effective
        return len(set(effective)) == 1

    def __str__(self) -> str:
        return "{" + ", ".join(str(f) for f in self.fanouts) + "}"
