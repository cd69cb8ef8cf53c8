"""Partitions and Maya diagrams (exponent sets of series subspaces).

A Maya diagram is a set S of integers that contains every integer below
some bound and finitely many above it.  These index the standard
subspaces span{z^e : e in S} of the series space; the base point uses
S0 = {all negative integers}.  The charge counts how S differs from S0
in the balance sense, and charge-zero diagrams biject with partitions by
reading off how far each member sits above its vacuum position.

Partitions are plain decreasing tuples of positive ints throughout the
package, diagrams hold ints, and a float or bool entry is refused.
"""

from __future__ import annotations

from typing import Iterator

from .errors import DomainError, _an_int

Partition = tuple[int, ...]


def check_partition(lam) -> Partition:
    """``lam`` as a tuple of positive non-increasing ints, or DomainError."""
    lam = tuple(lam)
    if any(type(p) is not int for p in lam):
        raise DomainError(f"partition parts must be ints: {lam}")
    if any(p <= 0 for p in lam):
        raise DomainError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise DomainError(f"partition parts must be non-increasing: {lam}")
    return lam


def partition_size(lam: Partition) -> int:
    return sum(lam)


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n with parts bounded by max_part, largest part
    first; none for a negative n."""
    if _an_int(n, "n") < 0:
        return
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(_an_int(max_part, "max_part"), n)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def partitions_up_to(bound: int) -> list[Partition]:
    """Every partition of size 0, 1, ..., bound, graded order."""
    out: list[Partition] = []
    for n in range(_an_int(bound, "bound") + 1):
        out.extend(partitions_of(n))
    return out


class MayaDiagram:
    """A subset of Z containing all integers below ``tail_start`` and the
    finitely many listed ``members`` above it.

    Normalized so that tail_start itself is not a member: any member
    touching the tail gets absorbed into it.
    """

    __slots__ = ("tail_start", "members")

    def __init__(self, tail_start: int, members=()):
        members = tuple(members)
        if any(type(m) is not int for m in (tail_start, *members)):
            raise DomainError(f"diagram entries must be ints: {tail_start!r}, {members}")
        mem = set(members)
        if any(m < tail_start for m in mem):
            raise DomainError("members below tail_start are already in the diagram")
        t = tail_start
        while t in mem:
            mem.remove(t)
            t += 1
        self.tail_start = t
        self.members = tuple(sorted(mem))

    def __contains__(self, e: int) -> bool:
        return e < self.tail_start or e in self.members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MayaDiagram):
            return NotImplemented
        return self.tail_start == other.tail_start and self.members == other.members

    def __hash__(self) -> int:
        return hash((self.tail_start, self.members))

    def __repr__(self) -> str:
        return f"MayaDiagram(tail_start={self.tail_start}, members={self.members})"

    def members_from(self, low: int) -> list[int]:
        """All members >= low, in increasing order (tail included)."""
        out = list(range(low, self.tail_start))
        out.extend(m for m in self.members if m >= low)
        return out

    def charge(self) -> int:
        """#(S intersect Z>=0) - #(Z<0 minus S), both finite: the tail
        alone has charge tail_start, and each member above it adds one."""
        return self.tail_start + len(self.members)

    @staticmethod
    def vacuum() -> "MayaDiagram":
        return MayaDiagram(0)

    @staticmethod
    def from_partition(lam, charge: int = 0) -> "MayaDiagram":
        """Members are lam_k - k + charge for k = 1, 2, ...; the tail takes
        over once the parts run out."""
        lam = check_partition(lam)
        members = [lam[k] - (k + 1) + charge for k in range(len(lam))]
        tail_start = charge - len(lam)
        return MayaDiagram(tail_start, members)

    def to_partition(self) -> Partition:
        """Inverse of from_partition at this diagram's own charge c: the
        k-th largest member m gives the part m + k - c.  Each member lies
        above the tail start, so each part is positive; past the members
        the tail gives parts of zero."""
        c = self.charge()
        return tuple(m + k - c for k, m in enumerate(reversed(self.members), 1))
