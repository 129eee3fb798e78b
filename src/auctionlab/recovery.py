"""Turning decrypted outcome exponents back into everyone's bids.

The outcome stage of the auction evaluates, in the exponent, a linear map
over the concatenated 0/1 bid vectors of all n bidders (k prices each).  The
map's nk x nk matrix has a rigid block layout:

* diagonal blocks: ones everywhere except the diagonal,
* blocks right of the diagonal: strictly upper-triangular ones,
* blocks left of the diagonal: upper-triangular ones including the diagonal.

Equivalently, entry l[i][j] of the image counts: all bids at prices above j,
bidder i's own bid at prices below j, and bids exactly at j by bidders
ranked before i.  A cell with count zero is the winning cell.

``outcome_map`` evaluates the map in O(nk) steps of any commutative
operation: integer addition over the bid bits gives the seller's counts
(``apply_f``), the product mod p over the posted ciphertexts gives the
protocol's cell bases (``protocol.compute_outcome_bases``).
``StructuredMatrix`` is the entry-by-entry reference the tests check against.

That structure makes the map injective on valid bid vectors and invertible
by a single backward sweep over price levels, highest first.
``invert_outcome_map`` is that sweep over any operation, given each
bidder's step (the entry at their price): under addition with steps of 1
it undoes ``apply_f``; under the product mod p with steps marker_h^e it
reads every bid off the seller's unmasked table, one marker per bidder
included.  ``recover_bids`` is the integer sweep with running prefix sums,
instrumented: every scalar addition on vector entries is counted, and the
count grows linearly in nk, far inside the quadratic budget the naive
cell-by-cell summation would spend.  With one shared marker the seller
reads each cell's count off a power table (``exponent_from_power``) and
hands the counts to ``recover_bids``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import InconsistentExponents, InvalidBidVector, NotAPower
from .groups import GroupParams


@dataclass(frozen=True)
class StructuredMatrix:
    """The nk x nk outcome map for n bidders and k prices."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("need at least one bidder and one price")

    @property
    def size(self) -> int:
        return self.n * self.k

    def entry(self, row: int, col: int) -> int:
        """Matrix entry at 0-based (row, col), from the block layout."""
        bi, pj = divmod(row, self.k)   # block row: bidder i, price j
        bh, pd = divmod(col, self.k)   # block col: bidder h, price d
        if bi == bh:
            return 1 if pd != pj else 0          # others' prices in own block
        if bh > bi:
            return 1 if pd > pj else 0           # strictly above the diagonal
        return 1 if pd >= pj else 0              # at or above the diagonal

    def dense(self) -> list[list[int]]:
        """Materialized matrix; intended for desk-scale checking only."""
        cols = range(self.size)
        return [[self.entry(row, col) for col in cols] for row in range(self.size)]


def build_matrix(n: int, k: int) -> StructuredMatrix:
    return StructuredMatrix(n=n, k=k)


def validate_bid_vector(b, n: int, k: int) -> None:
    """b must be length nk, entries 0/1, exactly one 1 per bidder block."""
    if len(b) != n * k:
        raise InvalidBidVector(f"length {len(b)} != n*k = {n * k}")
    for v in b:
        if v not in (0, 1):
            raise InvalidBidVector(f"entry {v!r} is not 0/1")
    for i in range(n):
        block = b[i * k:(i + 1) * k]
        if sum(block) != 1:
            raise InvalidBidVector(f"bidder {i + 1} block sums to {sum(block)}, not 1")


def outcome_map(grid, op, unit) -> list[list]:
    """The outcome map over an n x k grid (0-based), under ``op`` with
    identity ``unit``.

    Cell (i, j) folds every entry at higher prices, row i's entries at lower
    prices and earlier rows' entries at price j.  One suffix over the column
    totals, one prefix along each row and one prefix down each column:
    O(nk) applications of ``op`` for all n*k cells."""
    k = len(grid[0])
    above = [unit] * k                       # every row at prices j+1..k-1
    for j in range(k - 1, 0, -1):
        total = above[j]
        for row in grid:
            total = op(total, row[j])
        above[j - 1] = total
    before = [unit] * k                      # rows 0..i-1 at price j
    image = []
    for row in grid:
        own = unit                           # row i at prices 0..j-1
        cells = []
        for j, entry in enumerate(row):
            cells.append(op(op(above[j], own), before[j]))
            own = op(own, entry)
            before[j] = op(before[j], entry)
        image.append(cells)
    return image


def invert_outcome_map(image, steps, op, unit) -> list[int] | None:
    """The 1-based prices whose outcome map is ``image`` (an n x k grid),
    where bidder h's grid entry is ``steps[h]`` at their price and ``unit``
    elsewhere; None when no bid vector fits.

    Price levels are swept highest first.  ``base`` folds every bid placed
    above price t with the earlier rows' bids at t.  Cell (r, t) must equal
    ``base`` when bidder r bids at t or was placed higher, and
    ``op(base, steps[r])`` when r bids below t.  Every cell is compared, so
    a returned vector maps exactly onto ``image``.  A step equal to
    ``unit`` cannot tell those two cases apart, so it also gives None.
    O(nk) applications of ``op``, and no inverse."""
    if unit in steps:
        return None
    prices = [None] * len(steps)
    above = unit                             # every bid placed above price t
    for t in range(len(image[0]) - 1, -1, -1):
        before = unit                        # rows 0..r-1 bidding at t
        for r, step in enumerate(steps):
            base = op(above, before)
            if image[r][t] == base:
                if prices[r] is None:        # r bids at t
                    prices[r] = t + 1
                    before = op(before, step)
            elif prices[r] is not None or image[r][t] != op(base, step):
                return None
        above = op(above, before)
    return None if None in prices else prices


def apply_f(matrix: StructuredMatrix, b) -> list[int]:
    """Image of a valid bid vector under the outcome map: each cell's count,
    flattened row by row (no dense materialization)."""
    n, k = matrix.n, matrix.k
    validate_bid_vector(b, n, k)
    grid = [b[i * k:(i + 1) * k] for i in range(n)]
    return [count for row in outcome_map(grid, operator.add, 0) for count in row]


@dataclass(frozen=True)
class RecoveredBids:
    """Solver output: the 0/1 vector, per-bidder prices, and the work done."""

    b: tuple[int, ...]
    n: int
    k: int
    additions: int

    def prices(self) -> list[int]:
        """1-based price per bidder."""
        out = []
        for i in range(self.n):
            block = self.b[i * self.k:(i + 1) * self.k]
            out.append(block.index(1) + 1)
        return out


def recover_bids(image, n: int, k: int) -> RecoveredBids:
    """Invert the outcome map by back-substitution, highest price first.

    Within a price level, bidder r's entry needs the entries of lower-ranked
    bidders at the same level plus everything at higher levels except bidder
    r's own; both are maintained as running sums, so each cell costs O(1)
    additions.  Raises InconsistentExponents if the image was not produced
    by a valid bid vector.
    """
    if len(image) != n * k:
        raise InconsistentExponents(f"length {len(image)} != n*k = {n * k}")
    l = [list(image[i * k:(i + 1) * k]) for i in range(n)]
    x = [[0] * k for _ in range(n)]
    adds = 0

    row_suffix = [0] * n     # per bidder: sum of x at prices above the current one
    total_suffix = 0         # sum of x at prices above the current one, all bidders

    for t in range(k - 1, -1, -1):
        prefix = 0           # sum of x at price t for bidders ranked before r
        for r in range(n):
            val = 1 - l[r][t]
            adds += 1
            if r > 0:
                val += prefix
                adds += 1
            if t < k - 1:
                val += total_suffix - row_suffix[r]
                adds += 2
            if val not in (0, 1):
                raise InconsistentExponents(
                    f"cell ({r + 1},{t + 1}) solves to {val}, not 0/1")
            x[r][t] = val
            prefix += val
            adds += 1
        for r in range(n):
            row_suffix[r] += x[r][t]
            adds += 1
        total_suffix += prefix
        adds += 1

    flat = tuple(v for row in x for v in row)
    for i in range(n):
        if sum(flat[i * k:(i + 1) * k]) != 1:
            raise InconsistentExponents(f"bidder {i + 1} block is not one-hot")
    return RecoveredBids(b=flat, n=n, k=k, additions=adds)


def count_operations(n: int, k: int) -> int:
    """Instrumented addition count of the solver on a worst-case image."""
    matrix = build_matrix(n, k)
    bids = [k - (i % k) for i in range(n)]            # spread over all prices
    b = [int(j == price - 1) for price in bids for j in range(k)]
    image = apply_f(matrix, b)
    result = recover_bids(image, n, k)
    if list(result.b) != b:
        raise InconsistentExponents("round-trip mismatch while counting")
    return result.additions


def exponent_from_power(params: GroupParams, value: int, marker: int,
                        limit: int) -> int:
    """Find e in 0..limit with marker^e = value, else raise NotAPower."""
    acc = 1
    for e in range(limit + 1):
        if acc == value:
            return e
        acc = acc * marker % params.p
    raise NotAPower(f"{value} is not marker^e for e in 0..{limit}")
