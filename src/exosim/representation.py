"""State representation: mapping universe states to internal formulas.

A sensitive entity does not act on raw states; it acts on formulas, its
internal names for states. The map may be partial (blind spots) but a
usable representation must distinguish at least two states, i.e. its
image needs at least two formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .universe import StateId, ActId, Universe, UnknownAct

Formula = str


class RepresentationError(Exception):
    pass


class UnrepresentedFormula(RepresentationError):
    """A formula with no state mapped to it was used as a state name."""


class AmbiguousRepresentation(RepresentationError):
    """An inverse lookup needed one state but several share the formula."""


class UnknownActToken(UnknownAct):
    """An act token in a generated sequence names no act of the universe."""


@dataclass(frozen=True)
class RepresentationMap:
    """Partial map from states to the formulas that represent them."""

    entries: Mapping[StateId, Formula]
    _by_formula: dict[Formula, frozenset[StateId]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        grouped: dict[Formula, set[StateId]] = {}
        for state, formula in self.entries.items():
            grouped.setdefault(formula, set()).add(state)
        object.__setattr__(
            self, "_by_formula", {f: frozenset(s) for f, s in grouped.items()}
        )

    def states_for(self, formula: Formula) -> frozenset[StateId]:
        return self._by_formula.get(formula, frozenset())

    def inverse(self, formula: Formula) -> StateId:
        """The unique state a formula stands for.

        Raises UnrepresentedFormula when nothing maps to the formula and
        AmbiguousRepresentation when more than one state does.
        """
        states = self.states_for(formula)
        if not states:
            raise UnrepresentedFormula(f"no state is represented by {formula!r}")
        if len(states) > 1:
            raise AmbiguousRepresentation(
                f"{formula!r} represents {len(states)} states: {sorted(states)}"
            )
        return next(iter(states))

    @property
    def image(self) -> frozenset[Formula]:
        return frozenset(self._by_formula)

    def is_injective(self) -> bool:
        return all(len(s) == 1 for s in self._by_formula.values())

    def __iter__(self) -> Iterator[tuple[StateId, Formula]]:
        return iter(sorted(self.entries.items()))


def interpret_act(universe: Universe, token: ActId) -> ActId:
    """Resolve an act token from a generated sequence to a universe act."""
    if token not in universe.acts:
        raise UnknownActToken(
            f"act token {token!r} names no act of universe {universe.name!r}"
        )
    return token
