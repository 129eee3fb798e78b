"""Prime-order subgroup arithmetic.

All protocol values live in the order-q subgroup of Z_p*, with p and q prime
and q | p - 1.  Elements are plain Python ints; scalars (exponents) are ints
reduced mod q.  The default desk group (p=23, q=11, g=2) is small enough to
enumerate, which the test suite leans on heavily.

Narrow groups: one table of logarithms.  A group with p < 2^16 builds two
lists the first time it raises, inverts or tests a value: ``powers[i] =
g^i mod p`` for i < q, and ``logs``, p entries long, where ``logs[v]`` is
log_g v for a member v of the order-q subgroup and None for every other
value.  That costs q products, fewer than the ``pow`` calls of one
mid-group auction, and about 75 KB in the mid group; a group never used
(the mid group, in a large-group run) pays neither.  ``exp(x, e)`` for an
int member x and an int e reads ``powers[logs[x] * e % q]`` (about 0.2 us
in the mid group, against about 0.7 us for a call that ends in ``pow``),
and ``inv`` reads ``powers[-logs[x] % q]``.  Every other input, such as 0,
a non-member, x < 0, x >= p, a bool or a float, goes to ``pow``, so values
and exceptions are builtin ``pow``'s.  An unvalidated ``GroupParams``
whose p is not prime, or whose g does not have order exactly q, builds no
tables and keeps ``pow``.  The tables are plain attributes that the hot
paths read and test against None: ``functools.cached_property`` made each
``exp`` about 0.1 us slower under CPython 3.11.

Fixed-base tables.  In a group whose p has at least 128 bits,
``GroupParams.exp`` builds a table of the powers x^(16^i) mod p the first
time it raises a base x, and raises x through it from then on by Yao's
bucket method (Brickell-Gordon-McCurley-Wilson, "Fast Exponentiation with
Precomputation", EUROCRYPT '92).  Under CPython 3.11 a 256-bit power from a
table costs about a third of builtin ``pow``, and a table about 0.8 of one
``pow`` to build, so a base raised twice has already paid for its table.
Groups between 2^16 and 2^128 keep no table: ``pow`` is cheaper there.  A
negative exponent e raises the inverse x^-1 to -e: the inverse costs about
a tenth of a negative ``pow``, gets its own table, and a base that is not a
unit raises the same ValueError as ``pow``.  The result always equals
``pow(x, e, p)``.  A table serves only an int exponent 0 <= e < 2^(8w), w
the byte width of q, and never reduces e mod q, so bases outside the
subgroup come out exact too; every other exponent goes to ``pow``.  Tables
belong to one ``GroupParams`` (the mid and large groups share bases 4 and
9).  A group keeps at most 384, which covers the bases of the widest round
of an n=4, k=8 auction, evicting the least recently used, and
``AuctionRun.run`` and ``scenarios.run_scenario`` drop them when they end,
so they live for one run.

Many bases at once.  ``multi_exp`` raises a list of bases to their own
exponents and multiplies the powers by the bucket method (Pippenger): one
pass per window of c exponent bits sorts every base into the bucket of its
digit, and the buckets fold into the result with two products each.  A
batch of proof equations (``sigma.EquationBatch``) raises its targets this
way.

Membership.  ``are_elements`` decides whether values lie in the order-q
subgroup, and ``is_element`` asks it about one value.  One call for a whole
posted vector at least halves the mid group's cost per value (about 0.5
against 0.9 us for two values, 2.5 against 6.3 us for 32).  A group with
p < 2^16 reads ``logs``: v is a member when its entry is not None.  When
p = 2q + 1 the subgroup is the quadratic residues, so in a wide group a
Jacobi-symbol loop decides it (about 25 us at 256 bits, against about
120 us for ``pow``, on CPython 3.11).  Every other group compares
``pow(v, q, p)`` with 1.  A wide group's proof commitments are screened
many at a time instead (``sigma.EquationBatch``): the symbol is
multiplicative, so 64 random-subset products stand for a round's
commitments.
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

# Groups with p below this keep a table of powers and logarithms.
_LOG_TABLE_LIMIT = 1 << 16


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
        # Tables and ``wide`` are not fields: equality, hash and repr stay
        # (p, q, g).  ``wide``: p has at least 128 bits, so ``exp`` keeps
        # tables and proof equations are checked in batches.
        wide = self.p.bit_length() >= _TABLE_MIN_BITS
        width = (self.q.bit_length() + 7) // 8     # exponent bytes a table serves
        object.__setattr__(self, "wide", wide)
        object.__setattr__(self, "_tables", OrderedDict() if wide else None)
        object.__setattr__(self, "_table_bytes", width)
        object.__setattr__(self, "_table_limit", 1 << 8 * width)
        object.__setattr__(self, "_residues", wide and self.p == 2 * self.q + 1)
        # ``powers`` and ``logs``: a narrow group's tables, None until
        # ``_log_table`` builds them.
        object.__setattr__(self, "powers", None)
        object.__setattr__(self, "logs", None)
        object.__setattr__(self, "_logs_pending", self.p < _LOG_TABLE_LIMIT)

    def _log_table(self) -> list | None:
        """``logs``, built with ``powers`` the first time a group with
        p < 2^16 asks for it.  A group whose p is not prime, or whose g does
        not have order exactly q, gets no tables: a power read from them
        would not be ``pow``'s, nor membership Euler's criterion."""
        if self._logs_pending:
            object.__setattr__(self, "_logs_pending", False)
            p, q, g = self.p, self.q, self.g
            if not (0 < q < p and is_prime(p)):
                return None
            powers = [1] * q
            for i in range(1, q):
                powers[i] = powers[i - 1] * g % p
            logs = [None] * p
            for i, v in enumerate(powers):
                if logs[v] is not None:        # g^i = g^j: order below q
                    return None
                logs[v] = i
            if powers[-1] * g % p != 1:
                return None
            object.__setattr__(self, "powers", powers)
            object.__setattr__(self, "logs", logs)
        return self.logs

    def exp(self, x: int, e: int) -> int:
        """x**e mod p.  Negative e works because x is a unit mod p.  In a
        narrow group a member x is raised by reading ``powers`` at
        log(x) * e mod q; in a wide group x, or x^-1 for negative e, is
        raised through its table."""
        logs = self.logs
        if logs is not None:
            if type(x) is int and type(e) is int and 0 <= x < self.p:
                log = logs[x]
                if log is not None:
                    return self.powers[log * e % self.q]
            return pow(x, e, self.p)
        tables = self._tables
        if tables is None or type(e) is not int or type(x) is not int:
            if self._logs_pending and self._log_table() is not None:
                return self.exp(x, e)
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
        """Multiplicative inverse of x mod p, read from ``powers`` for a
        member of a narrow group."""
        logs = self.logs
        if logs is None and self._logs_pending:
            logs = self._log_table()
        if logs is not None and type(x) is int and 0 <= x < self.p:
            log = logs[x]
            if log is not None:
                return self.powers[-log % self.q]
        return pow(x, -1, self.p)

    def mul(self, *xs: int) -> int:
        out = 1
        for x in xs:
            out = out * x % self.p
        return out

    def is_element(self, v: int) -> bool:
        """True iff v is in the order-q subgroup (``are_elements``)."""
        return self.are_elements((v,))

    def are_elements(self, values) -> bool:
        """True iff every value is in the order-q subgroup: 0 < v < p and
        v^q = 1, read from ``logs`` in a group with p < 2^16, or decided by
        the Jacobi symbol (v/p) in a wide safe-prime group.  One call for
        many values costs about half as much per value as a call each."""
        logs, p = self.logs, self.p
        if logs is None and self._logs_pending:
            logs = self._log_table()
        for v in values:
            if not 0 < v < p:
                return False
            if logs is not None:
                if logs[v] is None:
                    return False
            elif self._residues:
                if _jacobi(v, p) != 1:
                    return False
            elif pow(v, self.q, p) != 1:
                return False
        return True

    def multi_exp(self, bases, exponents) -> int:
        """The product of bases[i]^exponents[i] mod p, for exponents >= 0,
        equal to the product of ``pow`` results.  Each pass takes the next
        c bits of every exponent from the top: the accumulator is squared c
        times, bucket d gathers the bases whose digit is d, and the running
        products of the buckets from the top digit down multiply in, which
        raises bucket d to d."""
        p = self.p
        pairs = [(x, e) for x, e in zip(bases, exponents) if e]
        if not pairs:
            return 1
        bits = max(e for _, e in pairs).bit_length()
        c = _window(len(pairs), bits)
        mask = (1 << c) - 1
        acc = 1
        for shift in range((bits - 1) // c * c, -1, -c):
            if acc != 1:
                for _ in range(c):
                    acc = acc * acc % p
            buckets = [1] * (mask + 1)
            for x, e in pairs:
                d = e >> shift & mask
                if d:
                    buckets[d] = buckets[d] * x % p
            run = 1
            for d in range(mask, 0, -1):
                if buckets[d] != 1:
                    run = run * buckets[d] % p
                if run != 1:
                    acc = acc * run % p
        return acc

    def elements(self) -> list[int]:
        """Every subgroup element, ascending.  Desk-scale groups only."""
        return sorted({pow(self.g, i, self.p) for i in range(self.q)})


def _window(count: int, bits: int) -> int:
    """The digit width c for ``multi_exp`` that needs the fewest products:
    ceil(bits / c) passes of ``count`` bucket products plus two per bucket."""
    return min(range(1, 17),
               key=lambda c: -(-bits // c) * (count + (2 << c)))


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0: 1, -1, or 0 when a and n
    share a factor.  Strips the factors of 2 from a, applying (2/n), then
    swaps a and n by quadratic reciprocity and reduces."""
    a %= n
    t = 1
    while a:
        z = (a & -a).bit_length() - 1
        if z:
            a >>= z
            if z & 1 and n & 7 in (3, 5):
                t = -t
        if a & n & 2:
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


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
