"""Prime-order subgroup arithmetic.

All protocol values live in the order-q subgroup of Z_p*, with p and q prime
and q | p - 1.  Elements are plain Python ints; scalars (exponents) are ints
reduced mod q.  The default desk group (p=23, q=11, g=2) is small enough to
enumerate, which the test suite leans on heavily.

Fixed-base tables.  In a group whose p has at least 128 bits,
``GroupParams.exp`` builds a table of the powers x^(16^i) mod p the first
time it raises a base x, and raises x through it from then on by Yao's
bucket method (Brickell-Gordon-McCurley-Wilson, "Fast Exponentiation with
Precomputation", EUROCRYPT '92).  Under CPython 3.11 a 256-bit power from a
table costs about a third of builtin ``pow``, and a table about 0.8 of one
``pow`` to build, so a base raised twice has already paid for its table.
Narrower groups keep no table: ``pow`` is cheaper there.  A negative
exponent e raises the inverse x^-1 to -e: the inverse costs about a tenth
of a negative ``pow``, gets its own table, and a base that is not a unit
raises the same ValueError as ``pow``.  The result always equals
``pow(x, e, p)``.  A table serves only an int exponent 0 <= e < 2^(8w), w
the byte width of q, and never reduces e mod q, so bases outside the
subgroup come out exact too; every other exponent goes to ``pow``.  Tables
belong to one ``GroupParams`` (the mid and large groups share bases 4 and
9).  A group keeps at most 384, which covers the bases of the widest round
of an n=4, k=8 auction, evicting the least recently used, and
``AuctionRun.run`` and ``scenarios.run_scenario`` drop them when they end,
so they live for one run.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass

from .errors import BadGenerator, NotPrime, OrderMismatch

# Deterministic trial division below this bound, Miller-Rabin above it.
_SMALL_PRIME_BOUND = 1 << 20
_MILLER_RABIN_ROUNDS = 40

# Fixed-base tables: the narrowest modulus that gets them, and how many
# tables a group keeps.
_TABLE_MIN_BITS = 128
_MAX_TABLES = 384


def is_prime(n: int) -> bool:
    """Primality test: exact below 2**20, 40-round Miller-Rabin above."""
    if n < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == sp:
            return True
        if n % sp == 0:
            return False
    if n < _SMALL_PRIME_BOUND:
        f = 41
        while f * f <= n:
            if n % f == 0:
                return False
            f += 2
        return True
    # Witnesses from a PRNG seeded by n itself, so the answer is reproducible.
    rng = random.Random(n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(_MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GroupParams:
    """A validated prime-order subgroup description: p, q, generator g."""

    p: int
    q: int
    g: int

    def __post_init__(self):
        # Tables are not fields: equality, hash and repr stay (p, q, g).
        wide = self.p.bit_length() >= _TABLE_MIN_BITS
        width = (self.q.bit_length() + 7) // 8     # exponent bytes a table serves
        object.__setattr__(self, "_tables", OrderedDict() if wide else None)
        object.__setattr__(self, "_table_bytes", width)
        object.__setattr__(self, "_table_limit", 1 << 8 * width)

    def exp(self, x: int, e: int) -> int:
        """x**e mod p.  Negative e works because x is a unit mod p.  In a
        wide group x, or x^-1 for negative e, is raised through its table."""
        tables = self._tables
        if tables is None or type(e) is not int or type(x) is not int:
            return pow(x, e, self.p)
        if e < 0:
            x, e = pow(x, -1, self.p), -e
        if e >= self._table_limit:
            return pow(x, e, self.p)
        table = tables.get(x)
        if table is None:
            table = tables[x] = self._build_table(x)
            if len(tables) > _MAX_TABLES:
                tables.popitem(last=False)
        else:
            tables.move_to_end(x)
        return self._table_exp(table, e)

    def _build_table(self, x: int) -> list[tuple[int, int]]:
        """x^(16^i) mod p for each hex digit of a table-served exponent,
        paired by byte."""
        p = self.p
        powers = [x % p]
        for _ in range(2 * self._table_bytes - 1):
            powers.append(pow(powers[-1], 16, p))
        return list(zip(powers[0::2], powers[1::2]))

    def _table_exp(self, table: list[tuple[int, int]], e: int) -> int:
        """Yao's method: bucket d holds the product of the powers whose
        hex digit of e is d; the result is the product of bucket d raised
        to d, folded from the top digit down."""
        p = self.p
        buckets = [1] * 16
        for b, (lo, hi) in zip(e.to_bytes(self._table_bytes, "little"), table):
            d = b & 15
            buckets[d] = buckets[d] * lo % p
            d = b >> 4
            buckets[d] = buckets[d] * hi % p
        acc = run = buckets[15]
        for d in range(14, 0, -1):
            run = run * buckets[d] % p
            acc = acc * run % p
        return acc

    def _drop_tables(self) -> None:
        """Forget every table."""
        if self._tables is not None:
            self._tables.clear()

    def inv(self, x: int) -> int:
        """Multiplicative inverse of x mod p."""
        return pow(x, -1, self.p)

    def mul(self, *xs: int) -> int:
        out = 1
        for x in xs:
            out = out * x % self.p
        return out

    def is_element(self, v: int) -> bool:
        """True iff v is in the order-q subgroup."""
        return 0 < v < self.p and pow(v, self.q, self.p) == 1

    def elements(self) -> list[int]:
        """Every subgroup element, ascending.  Desk-scale groups only."""
        return sorted({pow(self.g, i, self.p) for i in range(self.q)})

    def random_scalar(self, rng: random.Random, nonzero: bool = False) -> int:
        return rng.randrange(1 if nonzero else 0, self.q)


def validate_group(p: int, q: int, g: int) -> GroupParams:
    """Check the (p, q, g) description and return it as GroupParams.

    Raises NotPrime, OrderMismatch or BadGenerator on the first violated
    condition.
    """
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if not is_prime(q):
        raise NotPrime(f"q = {q} is not prime")
    if (p - 1) % q != 0:
        raise OrderMismatch(f"q = {q} does not divide p - 1 = {p - 1}")
    if not 1 < g < p:
        raise BadGenerator(f"g = {g} is outside 2..p-1")
    if pow(g, q, p) != 1:
        raise BadGenerator(f"g = {g} does not have order dividing q")
    return GroupParams(p=p, q=q, g=g)


# Desk-scale group used by the exhaustive tests and the worked examples.
SMALL_GROUP = validate_group(23, 11, 2)

# Mid-size safe-prime group (p = 2q + 1): large enough that chance scalar
# collisions are rare, small enough for fast statistical runs.
MID_GROUP = validate_group(2039, 1019, 4)

# 256-bit safe-prime group for realism runs.
LARGE_GROUP = validate_group(
    97620808529908943359756061231380452302880757263047581773431454527824292297999,
    48810404264954471679878030615690226151440378631523790886715727263912146148999,
    4,
)

GROUPS_BY_NAME = {"small": SMALL_GROUP, "mid": MID_GROUP, "large": LARGE_GROUP}

# Default price marker per named group: any subgroup element other than 1.
DEFAULT_MARKER = {"small": 4, "mid": 9, "large": 9}
