"""State representation: mapping universe states to internal formulas.

A sensitive entity does not act on raw states; it acts on formulas, its
internal names for states. The map may be partial (blind spots) but a
usable representation must distinguish at least two states, i.e. its
image needs at least two formulas. Callers read both directions directly:
``entries`` and its inverse ``by_formula``, whose keys are the image.
"""

from __future__ import annotations

from typing import Mapping

from .universe import ExosimError, StateId

Formula = str


class RepresentationError(ExosimError):
    pass


class UnrepresentedFormula(RepresentationError):
    """A formula with no state mapped to it was used as a state name."""


class AmbiguousRepresentation(RepresentationError):
    """An inverse lookup needed one state but several share the formula."""


class RepresentationMap:
    """Partial map from states to the formulas that represent them.

    ``by_formula`` is the inverse of ``entries``, built once: each formula
    of the image maps to the frozenset of the states it represents. A
    plain class, not a named tuple, because it derives ``by_formula`` in
    its constructor; two maps are equal when their entries are.
    """

    __slots__ = ("entries", "by_formula")

    def __init__(self, entries: Mapping[StateId, Formula]) -> None:
        self.entries = entries
        grouped: dict[Formula, set[StateId]] = {}
        for state, formula in entries.items():
            grouped.setdefault(formula, set()).add(state)
        self.by_formula = {f: frozenset(s) for f, s in grouped.items()}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"RepresentationMap(entries={self.entries!r})"

    def inverse(self, formula: Formula) -> StateId:
        """The unique state a formula stands for.

        Raises UnrepresentedFormula when nothing maps to the formula and
        AmbiguousRepresentation when more than one state does.
        """
        states = self.by_formula.get(formula)
        if not states:
            raise UnrepresentedFormula(f"no state is represented by {formula!r}")
        if len(states) > 1:
            raise AmbiguousRepresentation(
                f"{formula!r} represents {len(states)} states: {sorted(states)}"
            )
        return next(iter(states))
