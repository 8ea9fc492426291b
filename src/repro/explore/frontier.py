"""The Pareto frontier: incremental dominance updates over objective vectors.

All objectives are minimized.  A candidate *dominates* another when it is no
worse on every objective and strictly better on at least one; the frontier
is the set of evaluated candidates no other evaluated candidate dominates.
:meth:`ParetoFrontier.add` maintains that set incrementally — each new entry
is compared against the current frontier only (dominated entries already
removed can never return), so an exploration of *n* candidates costs
O(n · frontier size) dominance checks, not O(n²) against all history.

The frontier serializes to a plain JSON payload (:meth:`to_payload` /
:meth:`from_payload`); the exploration engine persists it inside its state
file so an interrupted exploration resumes with the frontier it had.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence


@dataclass(frozen=True)
class FrontierEntry:
    """One evaluated candidate: its id, objective vector, and report row.

    ``metrics`` carries the candidate's Table-2 metrics dict (when the full
    pipeline produced one) purely for reporting — dominance looks only at
    ``objectives``.
    """

    candidate_id: str
    objectives: Dict[str, float]
    metrics: Optional[Dict[str, Any]] = None

    def payload(self) -> Dict[str, Any]:
        """JSON-serializable form (stable key order for byte-stable files)."""
        return {
            "candidate_id": self.candidate_id,
            "objectives": dict(sorted(self.objectives.items())),
            "metrics": self.metrics,
        }


def dominates(
    a: Dict[str, float], b: Dict[str, float], names: Sequence[str]
) -> bool:
    """Whether vector ``a`` Pareto-dominates ``b`` on the named objectives.

    Minimization semantics: ``a`` is never worse and strictly better at
    least once.  Both vectors must carry every name (missing values are a
    caller bug, surfaced as :class:`KeyError`).
    """
    strictly_better = False
    for name in names:
        if a[name] > b[name]:
            return False
        if a[name] < b[name]:
            strictly_better = True
    return strictly_better


class ParetoFrontier:
    """The non-dominated set of evaluated candidates, updated incrementally."""

    def __init__(
        self,
        objective_names: Sequence[str],
        entries: Optional[Sequence[FrontierEntry]] = None,
    ) -> None:
        if not objective_names:
            raise ValueError("a Pareto frontier needs at least one objective")
        self.objective_names = tuple(objective_names)
        self._entries: List[FrontierEntry] = []
        for entry in entries or ():
            self.add(entry)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[FrontierEntry]:
        return iter(self._entries)

    def entries(self) -> List[FrontierEntry]:
        """Current frontier entries, in insertion order of the survivors."""
        return list(self._entries)

    def is_dominated(self, objectives: Dict[str, float]) -> bool:
        """Whether an objective vector is dominated by the current frontier."""
        return any(
            dominates(entry.objectives, objectives, self.objective_names)
            for entry in self._entries
        )

    def add(self, entry: FrontierEntry) -> bool:
        """Offer one evaluated candidate; return whether it joined.

        A dominated entry is refused; an accepted entry evicts every current
        member it dominates.  Re-offering an id already on the frontier
        replaces that entry (resume replays candidates through here).
        """
        missing = set(self.objective_names) - set(entry.objectives)
        if missing:
            raise ValueError(
                f"candidate {entry.candidate_id!r} lacks objectives {sorted(missing)}"
            )
        self._entries = [
            e for e in self._entries if e.candidate_id != entry.candidate_id
        ]
        if self.is_dominated(entry.objectives):
            return False
        self._entries = [
            e
            for e in self._entries
            if not dominates(entry.objectives, e.objectives, self.objective_names)
        ]
        self._entries.append(entry)
        return True

    # ------------------------------------------------------------ persistence
    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable form of the whole frontier."""
        return {
            "objectives": list(self.objective_names),
            "entries": [entry.payload() for entry in self._entries],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ParetoFrontier":
        """Rebuild a frontier persisted with :meth:`to_payload`.

        Entries pass through :meth:`add`, so a hand-edited (or corrupted)
        payload containing dominated rows is repaired on load rather than
        trusted.
        """
        if not isinstance(payload, dict) or not payload.get("objectives"):
            raise ValueError("frontier payload must carry an 'objectives' list")
        frontier = cls(payload["objectives"])
        for raw in payload.get("entries", ()):
            frontier.add(
                FrontierEntry(
                    candidate_id=raw["candidate_id"],
                    objectives={k: float(v) for k, v in raw["objectives"].items()},
                    metrics=raw.get("metrics"),
                )
            )
        return frontier


def is_dominance_consistent(
    entries: Sequence[FrontierEntry], names: Sequence[str]
) -> bool:
    """Whether no entry of ``entries`` dominates another (a frontier invariant).

    The explore CLI test and the regression tests call this on reported
    frontiers: a frontier containing a dominated row means the incremental
    update broke.
    """
    for a in entries:
        for b in entries:
            if a is not b and dominates(a.objectives, b.objectives, names):
                return False
    return True
