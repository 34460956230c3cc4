"""Value ranges for attribute variables (paper §3.3).

HTL restricts predicates over an attribute variable ``y`` to the forms
``y OP q`` with ``OP ∈ {<, <=, >, >=, =}`` for integer ``q`` and to
``y = q`` otherwise, so the satisfying values of a conjunction of such
predicates always form a *range*; similarity-table columns for attribute
variables therefore hold ranges rather than single values.

A :class:`Range` is one of three kinds:

* an **interval** ``[low, high]`` of integers, possibly unbounded on either
  side (integers are the paper's ranged type);
* an **exact** value of any type (the only predicate form for non-integer
  values is equality);
* a **complement** — every value except a finite excluded set; this is how
  "any string not mentioned by the query" is represented, and
  :data:`FULL` (no exclusions) is the unconstrained range.

The algebra (intersection, difference) is closed under the combinations
that arise when each attribute variable is used with one consistent value
type — the discipline the retrieval layer enforces per atom.  Genuinely
mixed combinations (an integer interval against a complement excluding
integers inside it, ...) raise :class:`HTLTypeError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Union

from repro.errors import HTLTypeError

RangeValue = Union[str, int, float]


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Range:
    """One range of attribute-variable values (see module docstring).

    Exactly one kind is active: ``exact`` set → exact; ``is_interval`` set →
    integer interval ``[low, high]``; otherwise complement of ``excluded``.
    The default construction ``Range()`` is :data:`FULL`.
    """

    low: Optional[int] = None
    high: Optional[int] = None
    exact: object = None
    is_interval: bool = False
    excluded: FrozenSet[RangeValue] = frozenset()

    def __post_init__(self) -> None:
        if self.exact is not None:
            if self.low is not None or self.high is not None or self.excluded:
                raise HTLTypeError("exact ranges carry no bounds/exclusions")
            return
        if self.low is not None or self.high is not None or self.is_interval:
            object.__setattr__(self, "is_interval", True)
            if self.excluded:
                raise HTLTypeError("interval ranges carry no exclusions")
            for bound in (self.low, self.high):
                if bound is not None and not _is_int(bound):
                    raise HTLTypeError(
                        "the paper restricts ranged attribute variables to "
                        f"integers; got bound {bound!r}"
                    )
            if (
                self.low is not None
                and self.high is not None
                and self.low > self.high
            ):
                raise HTLTypeError(f"empty range [{self.low}, {self.high}]")

    # -- kind predicates ------------------------------------------------------
    def is_exact(self) -> bool:
        return self.exact is not None

    def is_complement(self) -> bool:
        return self.exact is None and not self.is_interval

    def is_full(self) -> bool:
        return self.is_complement() and not self.excluded

    # -- membership -------------------------------------------------------------
    def contains(self, value: RangeValue) -> bool:
        if self.exact is not None:
            return value == self.exact
        if self.is_interval:
            if not _is_int(value):
                return False
            if self.low is not None and value < self.low:
                return False
            if self.high is not None and value > self.high:
                return False
            return True
        return value not in self.excluded

    # -- algebra --------------------------------------------------------------
    def intersect(self, other: "Range") -> Optional["Range"]:
        """The common sub-range, or None when empty."""
        if self.exact is not None:
            return self if other.contains(self.exact) else None  # type: ignore[arg-type]
        if other.exact is not None:
            return other if self.contains(other.exact) else None  # type: ignore[arg-type]
        if self.is_interval and other.is_interval:
            low = _max_bound(self.low, other.low)
            high = _min_bound(self.high, other.high)
            if low is not None and high is not None and low > high:
                return None
            return Range(low, high, is_interval=True)
        if self.is_interval or other.is_interval:
            interval = self if self.is_interval else other
            complement = other if self.is_interval else self
            conflicting = [
                value
                for value in complement.excluded
                if _is_int(value) and interval.contains(value)
            ]
            if conflicting:
                raise HTLTypeError(
                    "intersecting an integer interval with a complement "
                    f"excluding integers {conflicting}: an attribute "
                    "variable is being used with mixed value types"
                )
            return interval
        return Range(excluded=self.excluded | other.excluded)

    def difference(self, other: "Range") -> List["Range"]:
        """``self`` minus ``other`` as disjoint ranges."""
        if self.intersect(other) is None:
            return [self]
        if self.exact is not None:
            # Intersecting means the exact value lies in `other`.
            return []
        if self.is_interval:
            return self._interval_difference(other)
        return self._complement_difference(other)

    def _interval_difference(self, other: "Range") -> List["Range"]:
        if other.exact is not None:
            if not _is_int(other.exact):
                return [self]
            other = Range(other.exact, other.exact, is_interval=True)
        if other.is_interval:
            pieces: List[Range] = []
            if other.low is not None and (
                self.low is None or self.low < other.low
            ):
                pieces.append(Range(self.low, other.low - 1, is_interval=True))
            if other.high is not None and (
                self.high is None or self.high > other.high
            ):
                pieces.append(Range(other.high + 1, self.high, is_interval=True))
            return pieces
        # interval minus complement = the excluded integers inside.
        return [
            Range(value, value, is_interval=True)
            for value in sorted(v for v in other.excluded if _is_int(v))
            if self.contains(value)
        ]

    def _complement_difference(self, other: "Range") -> List["Range"]:
        if other.exact is not None:
            return [Range(excluded=self.excluded | {other.exact})]  # type: ignore[arg-type]
        if other.is_complement():
            return [
                Range(exact=value)
                for value in sorted(other.excluded - self.excluded, key=repr)
            ]
        # ``other`` is an integer interval: under the one-type-per-variable
        # discipline the variable is integer-typed here, so the complement
        # acts as the integer axis minus its excluded integers; the
        # difference is the flanking intervals, themselves punctured at
        # any excluded integers they contain.
        axis = Range(None, None, is_interval=True)
        pieces = axis.difference(other)
        for value in sorted(
            (v for v in self.excluded if _is_int(v)),
            key=lambda v: (v is None, v),
        ):
            pieces = [
                part
                for piece in pieces
                for part in piece.difference(Range(exact=value))
            ]
        return pieces

    # -- representatives --------------------------------------------------------
    def sample(self) -> RangeValue:
        """A representative member of the range."""
        if self.exact is not None:
            return self.exact  # type: ignore[return-value]
        if self.is_interval:
            if self.low is not None:
                return self.low
            if self.high is not None:
                return self.high
            return 0
        candidate = "other"
        suffix = 0
        while candidate in self.excluded:
            suffix += 1
            candidate = f"other_{suffix}"
        return candidate

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"Range(={self.exact!r})"
        if self.is_interval:
            low = "-inf" if self.low is None else str(self.low)
            high = "+inf" if self.high is None else str(self.high)
            return f"Range([{low}, {high}])"
        if not self.excluded:
            return "Range(FULL)"
        return f"Range(not in {sorted(self.excluded, key=repr)!r})"


def _max_bound(left: Optional[int], right: Optional[int]) -> Optional[int]:
    if left is None:
        return right
    if right is None:
        return left
    return max(left, right)


def _min_bound(left: Optional[int], right: Optional[int]) -> Optional[int]:
    if left is None:
        return right
    if right is None:
        return left
    return min(left, right)


#: The unconstrained range (complement of nothing).
FULL = Range()


def interval(low: Optional[int], high: Optional[int]) -> Range:
    """Shorthand integer-interval constructor."""
    return Range(low, high, is_interval=True)


def from_comparison(op: str, bound: RangeValue) -> Range:
    """The range of ``y`` values satisfying ``y OP bound``.

    Mirrors the paper's restriction: the five ordered forms for integer
    bounds, equality only otherwise.
    """
    if not _is_int(bound):
        if op == "=":
            return Range(exact=bound)
        raise HTLTypeError(
            f"attribute-variable predicate y {op} {bound!r}: non-integer "
            "bounds are restricted to equality (paper §3.3)"
        )
    if op == "=":
        return interval(bound, bound)
    if op == "<":
        return interval(None, bound - 1)
    if op == "<=":
        return interval(None, bound)
    if op == ">":
        return interval(bound + 1, None)
    if op == ">=":
        return interval(bound, None)
    raise HTLTypeError(f"unsupported attribute-variable comparison {op!r}")


def flipped(op: str) -> str:
    """Mirror a comparison so the attribute variable sits on the left."""
    return {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
