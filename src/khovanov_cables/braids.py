"""Braid words and their planar closures.

A word on n strands is a sequence of nonzero letters; letter j (1-based)
crosses the strands in columns j and j+1, positively for j > 0. Closure
wraps every column around the east side of the diagram, the westmost
column outermost. Strand edges are oriented down the page, closure arcs
bottom to top, so every component carries a coherent orientation.

Crossing slot layout in a closure (counterclockwise): 0 = upper right,
1 = upper left, 2 = lower left, 3 = lower right. A positive letter puts
the over-strand on the 0-2 diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .diagrams import End, LinkDiagram


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        for l in self.letters:
            if l == 0 or abs(l) >= self.strands:
                raise ValueError(f"bad letter {l}")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError(f"cannot multiply {self.strands}- and {other.strands}-strand words")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-l for l in reversed(self.letters)))

    def power(self, k: int) -> "BraidWord":
        base = self if k >= 0 else self.inverse()
        return BraidWord(self.strands, base.letters * abs(k))

    def mirror(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-l for l in self.letters))

    @property
    def writhe(self) -> int:
        return sum(1 if l > 0 else -1 for l in self.letters)

    def permutation(self) -> list[int]:
        """perm[i] = column where the strand starting in column i ends up."""
        occ = list(range(self.strands))
        for l in self.letters:
            j = abs(l) - 1
            occ[j], occ[j + 1] = occ[j + 1], occ[j]
        perm = [0] * self.strands
        for col, strand in enumerate(occ):
            perm[strand] = col
        return perm

    def closure_cycles(self) -> list[tuple[int, ...]]:
        """Cycles of the strand permutation: the closure's components."""
        perm = self.permutation()
        seen: set[int] = set()
        cycles = []
        for i in range(self.strands):
            if i in seen:
                continue
            cyc = [i]
            seen.add(i)
            j = perm[i]
            while j != i:
                cyc.append(j)
                seen.add(j)
                j = perm[j]
            cycles.append(tuple(cyc))
        return cycles

    def to_text(self) -> str:
        return f"{self.strands}: " + " ".join(str(l) for l in self.letters)

    @classmethod
    def from_text(cls, text: str) -> "BraidWord":
        head, _, rest = text.partition(":")
        letters = tuple(int(tok) for tok in rest.split())
        return cls(int(head.strip()), letters)


def row_word(m: int, a: int, i: int) -> BraidWord:
    """Positive word on 2m+1 strands: a full rows of ascending generators,
    then the first i letters of one more row."""
    if not (m >= 0 and a >= 0 and 0 <= i <= 2 * m):
        raise ValueError(f"row_word({m}, {a}, {i}): need m >= 0, a >= 0, 0 <= i <= 2m")
    return BraidWord(2 * m + 1, tuple(range(1, 2 * m + 1)) * a + tuple(range(1, i + 1)))


def full_twist(strands: int, count: int = 1) -> BraidWord:
    """`count` full twists on the given strands (negative count twists back)."""
    row = tuple(range(1, strands))
    word = BraidWord(strands, row * strands)
    return word.power(count)


def strand_orbit_closed(word: BraidWord, strands: set[int]) -> bool:
    """True if the strand set is a union of closure components."""
    return all(
        set(cyc) <= strands or not (set(cyc) & strands)
        for cyc in word.closure_cycles()
    )


def count_inter_crossings(word: BraidWord, strands: set[int]) -> int:
    """Number of letters crossing a strand of the given set with one outside.

    The set must close up to a sublink of the closure; strand positions are
    tracked through the word.
    """
    if not strands <= set(range(word.strands)):
        raise ValueError("strand index out of range")
    if not strand_orbit_closed(word, strands):
        raise ValueError("strand set does not close to a sublink")
    occ = list(range(word.strands))
    count = 0
    for l in word.letters:
        j = abs(l) - 1
        if (occ[j] in strands) != (occ[j + 1] in strands):
            count += 1
        occ[j], occ[j + 1] = occ[j + 1], occ[j]
    return count


def random_braid(rng: Random, strands: int, length: int) -> BraidWord:
    if strands < 1 or length < 0:
        raise ValueError(f"random_braid({strands}, {length}): need strands >= 1, length >= 0")
    if strands == 1:
        return BraidWord(1, ())
    choices = [s * j for j in range(1, strands) for s in (1, -1)]
    return BraidWord(strands, tuple(rng.choice(choices) for _ in range(length)))


def cable_word(word: BraidWord, width: int) -> BraidWord:
    """Replace each strand by `width` parallel strands.

    Each letter becomes a width^2 block moving the two bundles past each
    other strand by strand, preserving order within each bundle.
    """
    if width < 1:
        raise ValueError(f"cable_word: width {width} is not positive")
    letters: list[int] = []
    for l in word.letters:
        j, sign = abs(l), (1 if l > 0 else -1)
        for r in range(width):
            for s in range(width):
                letters.append(sign * (j * width + r - s))
    return BraidWord(word.strands * width, tuple(letters))


def braid_closure(word: BraidWord, with_columns: bool = False):
    """Planar closure of a braid word, with placement data for every
    connected piece and a free loop for every untouched strand.

    With with_columns, also returns one diagram element per braid column:
    ("edge", closure edge id) for columns a letter touches, ("loop", id)
    for the rest.
    """
    D = LinkDiagram()
    n = word.strands
    cur: dict[int, End] = {}  # dangling lower end per column
    first_in: dict[int, End] = {}  # upper end awaiting its closure arc
    letter_col: dict[int, int] = {}  # crossing id -> left column of its letter

    for l in word.letters:
        j = abs(l) - 1
        cid = D.new_crossing(over_diag=0 if l > 0 else 1)
        letter_col[cid] = j
        for col, slot_in in ((j, 1), (j + 1, 0)):
            if col in cur:
                D.new_edge(cur[col], (cid, slot_in))
            else:
                first_in[col] = (cid, slot_in)
        cur[j] = (cid, 2)
        cur[j + 1] = (cid, 3)

    closure_edge: dict[int, int] = {}
    for col in sorted(cur):
        closure_edge[col] = D.new_edge(cur[col], first_in[col])

    # group touched columns into connected pieces (contiguous column runs
    # joined by letters; a run's closure arcs nest around everything east)
    runs: list[list[int]] = []
    linked = {abs(l) - 1 for l in word.letters}
    for col in sorted(cur):
        if runs and runs[-1][-1] == col - 1 and (col - 1) in linked:
            runs[-1].append(col)
        else:
            runs.append([col])

    east_arc_of_run: list[int] = [closure_edge[r[-1]] for r in runs]
    for k, run in enumerate(runs):
        own = (closure_edge[run[0]], 0)
        host = None if k == 0 else (east_arc_of_run[k - 1], 1)
        key = min(c for c, j in letter_col.items() if j in run)
        D.piece_data[key] = (own, host)

    column_item: dict[int, tuple[str, int]] = {
        col: ("edge", eid) for col, eid in closure_edge.items()
    }
    for col in range(n):
        if col in cur:
            continue
        west = [k for k, r in enumerate(runs) if r[-1] < col]
        host = (east_arc_of_run[west[-1]], 1) if west else None
        column_item[col] = ("loop", D.new_loop(ccw=True, host=host))

    assert set(D.piece_data) == set(D.pieces()), "piece bookkeeping drifted"
    if with_columns:
        return D, tuple(column_item[col] for col in range(n))
    return D
