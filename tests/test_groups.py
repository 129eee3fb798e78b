"""Group parameter validation and modular arithmetic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import groups
from auctionlab.errors import BadGenerator, NotPrime, OrderMismatch
from auctionlab.groups import (
    DEFAULT_MARKER,
    GROUPS_BY_NAME,
    LARGE_GROUP,
    MID_GROUP,
    SMALL_GROUP,
    GroupParams,
    is_prime,
    validate_group,
)
from auctionlab.protocol import AuctionConfig, run_auction


class TestPrimality:
    def test_small_primes(self):
        for n in (2, 3, 5, 7, 11, 23, 1019, 2039):
            assert is_prime(n)

    def test_small_composites(self):
        for n in (0, 1, 4, 9, 21, 25, 1024, 2047):
            assert not is_prime(n)

    def test_large_group_primes(self):
        assert is_prime(LARGE_GROUP.p)
        assert is_prime(LARGE_GROUP.q)


class TestValidation:
    def test_desk_scale_group(self):
        params = validate_group(23, 11, 2)
        assert (params.p, params.q, params.g) == (23, 11, 2)

    def test_composite_modulus_rejected(self):
        with pytest.raises(NotPrime):
            validate_group(25, 11, 2)

    def test_composite_order_rejected(self):
        with pytest.raises(NotPrime):
            validate_group(23, 12, 2)

    def test_order_must_divide(self):
        # 7 is prime but does not divide 22
        with pytest.raises(OrderMismatch):
            validate_group(23, 7, 2)

    def test_generator_of_wrong_order_rejected(self):
        # 5 has order 22 mod 23, not 11
        with pytest.raises(BadGenerator):
            validate_group(23, 11, 5)

    def test_identity_is_not_a_generator(self):
        with pytest.raises(BadGenerator):
            validate_group(23, 11, 1)

    def test_named_groups_are_valid(self):
        for name, params in GROUPS_BY_NAME.items():
            validate_group(params.p, params.q, params.g)
            marker = DEFAULT_MARKER[name]
            assert params.is_element(marker) and marker != 1


class TestArithmetic:
    def test_exp_oracle(self, small):
        assert small.exp(2, 10) == 12
        assert small.exp(2, 11) == 1

    def test_inverse_oracle(self, small):
        assert small.inv(8) == 3
        assert small.inv(16) == 13

    def test_subgroup_membership(self, small):
        assert small.is_element(4)
        assert not small.is_element(5)
        assert not small.is_element(7)

    def test_subgroup_enumeration(self, small):
        elems = sorted(small.elements())
        assert elems == [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18]
        assert len(elems) == small.q

    def test_mul_variadic(self, small):
        assert small.mul(8, 9) == 3
        assert small.mul() == 1


class TestProperties:
    @given(x=st.integers(1, 10), y=st.integers(1, 10))
    @settings(max_examples=50)
    def test_exp_homomorphic(self, x, y):
        g = SMALL_GROUP
        assert g.exp(g.g, x + y) == g.mul(g.exp(g.g, x), g.exp(g.g, y))

    @given(x=st.integers(1, 22))
    @settings(max_examples=50)
    def test_inverse_cancels(self, x):
        g = SMALL_GROUP
        assert g.mul(x, g.inv(x)) == 1

    @given(e=st.integers(0, 3 * 1019))
    @settings(max_examples=50)
    def test_exponent_arithmetic_mod_order(self, e):
        g = MID_GROUP
        assert g.exp(g.g, e) == g.exp(g.g, e % g.q)


_P, _Q, _G = LARGE_GROUP.p, LARGE_GROUP.q, LARGE_GROUP.g

_BASES = st.one_of(
    st.integers(0, _Q - 1).map(lambda a: pow(_G, a, _P)),      # subgroup members
    st.integers(0, _Q - 1).map(lambda a: _P - pow(_G, a, _P)),  # -g^a: non-members
    st.sampled_from([1, _P - 1]),
)
# Served by a table: 0 <= e < 2^256, above q too.  Left to pow: the rest.
_EDGE_EXPONENTS = [0, 1, _Q - 1, _Q, _Q + 1, 2 * _Q + 1, 2**256 - 1,
                   -1, -_Q, 2**256, 2**256 + 1, 2**300]


class TestFixedBaseTables:
    """In the 256-bit group ``exp`` raises a recurring base through a table
    of powers; the result must be builtin ``pow``'s for every base and
    exponent."""

    @given(x=_BASES, exponents=st.lists(
        st.one_of(st.integers(0, 2**256 - 1), st.integers(-(2**300), 2**300)),
        max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_recurring_base_matches_pow(self, x, exponents):
        LARGE_GROUP._drop_tables()
        for e in [*_EDGE_EXPONENTS, *exponents]:
            assert LARGE_GROUP.exp(x, e) == pow(x, e, _P)
        assert x in LARGE_GROUP._tables
        LARGE_GROUP._drop_tables()

    def test_mid_and_large_groups_keep_their_own_powers(self):
        """Both groups have g = 4 and marker 9: a table keyed on the base
        alone would hand one group the other's powers."""
        exponents = [0, 1, 2, MID_GROUP.q - 1, MID_GROUP.q, _Q - 1, 2**255 + 3]
        try:
            for _ in range(3):
                for x in (4, 9):
                    for e in exponents:
                        assert MID_GROUP.exp(x, e) == pow(x, e, MID_GROUP.p)
                        assert LARGE_GROUP.exp(x, e) == pow(x, e, _P)
            assert set(LARGE_GROUP._tables) == {4, 9}
        finally:
            LARGE_GROUP._drop_tables()

    def test_narrow_groups_build_no_table(self):
        for params in (SMALL_GROUP, MID_GROUP):
            for e in range(3 * params.q):
                assert params.exp(params.g, e) == pow(params.g, e, params.p)
            assert params._tables is None

    def test_tables_are_not_fields(self):
        try:
            for e in range(3):
                LARGE_GROUP.exp(_G, e)
            fresh = GroupParams(p=_P, q=_Q, g=_G)
            assert LARGE_GROUP._tables and not fresh._tables
            assert fresh == LARGE_GROUP and hash(fresh) == hash(LARGE_GROUP)
            assert repr(fresh) == repr(LARGE_GROUP) == f"GroupParams(p={_P}, q={_Q}, g={_G})"
        finally:
            LARGE_GROUP._drop_tables()

    def test_bounded_with_least_recently_used_evicted(self, monkeypatch):
        monkeypatch.setattr(groups, "_MAX_TABLES", 3)
        params = GroupParams(p=_P, q=_Q, g=_G)
        for x in (2, 3, 5, 2, 3, 5, 2, 7, 7):       # 3 is least recently used
            assert params.exp(x, _Q - 2) == pow(x, _Q - 2, _P)
        assert list(params._tables) == [5, 2, 7]
        for x in range(100, 112):
            params.exp(x, 3)
        assert list(params._tables) == [109, 110, 111]
        params._drop_tables()
        assert not params._tables

    @given(x=_BASES, e=st.integers(0, 2**256 - 1))
    @settings(max_examples=40, deadline=None)
    def test_first_use_builds_a_table(self, x, e):
        LARGE_GROUP._drop_tables()
        try:
            assert LARGE_GROUP.exp(x, e) == pow(x, e, _P)
            assert x in LARGE_GROUP._tables
        finally:
            LARGE_GROUP._drop_tables()

    @given(x=_BASES)
    @settings(max_examples=40, deadline=None)
    def test_negative_exponent_through_the_inverse(self, x):
        """x^-e is (x^-1)^e: the inverse gets the table, and -2^256 and
        -2^300, too wide for one, still match ``pow``."""
        LARGE_GROUP._drop_tables()
        try:
            for e in (-1, -_Q, -(_Q - 1), -(2**256), -(2**300)):
                assert LARGE_GROUP.exp(x, e) == pow(x, e, _P)
            assert pow(x, -1, _P) in LARGE_GROUP._tables
        finally:
            LARGE_GROUP._drop_tables()

    @pytest.mark.parametrize("x,e", [(_P, -3), (0, -1)])
    def test_negative_power_of_a_non_unit_raises_like_pow(self, x, e):
        LARGE_GROUP._drop_tables()
        with pytest.raises(ValueError) as expected:
            pow(x, e, _P)
        with pytest.raises(ValueError) as caught:
            LARGE_GROUP.exp(x, e)
        assert str(caught.value) == str(expected.value)
        assert not LARGE_GROUP._tables

    def test_every_power_of_an_interactive_auction_uses_a_table(self, monkeypatch):
        calls = {"exp": 0, "build": 0, "table": 0}

        def counted(name, method):
            def wrapper(self, *args):
                calls[name] += 1
                return method(self, *args)
            return wrapper

        for name, attr in (("exp", "exp"), ("build", "_build_table"),
                           ("table", "_table_exp")):
            monkeypatch.setattr(GroupParams, attr,
                                counted(name, getattr(GroupParams, attr)))
        cfg = AuctionConfig(n=2, k=2, params=LARGE_GROUP, marker=9)
        assert run_auction(cfg, [1, 2], 3)[1].status == "winner"
        assert calls["exp"] > 0 and calls["table"] == calls["exp"]
        assert 0 < calls["build"] < calls["exp"]


# Neither is a safe prime.  p = 31 is small enough for a member table;
# p = 73369 = 72 * 1019 + 1 is not, so its membership goes through pow.
_ALL_GROUPS = {**GROUPS_BY_NAME, "p31": validate_group(31, 5, 2),
               "p73369": validate_group(73369, 1019, 62156)}


def _membership_probes(params):
    """Members, their negatives p - v, the ends 0 and p, and random values."""
    p, q = params.p, params.q
    rng = random.Random(p)
    members = [pow(params.g, rng.randrange(q), p) for _ in range(30)]
    return [*members, *(p - v for v in members), 0, p, 1, p - 1,
            *(rng.randrange(1, p) for _ in range(30))]


class TestMembership:
    """``is_element`` is Euler's criterion, v^q = 1 for 0 < v < p, whether
    it reads a member table (p < 2^16), asks the Jacobi symbol (wide
    safe-prime groups) or ``pow``."""

    @pytest.mark.parametrize("name", _ALL_GROUPS)
    def test_matches_pow(self, name):
        params = _ALL_GROUPS[name]
        p, q = params.p, params.q
        for v in _membership_probes(params):
            assert params.is_element(v) == (0 < v < p and pow(v, q, p) == 1), v

    @pytest.mark.parametrize("name", _ALL_GROUPS)
    def test_many_values_at_once(self, name):
        """``are_elements`` over a vector is the AND of ``is_element`` over
        its values, in every order."""
        params = _ALL_GROUPS[name]
        probes = list(_membership_probes(params))
        rng = random.Random(7)
        for _ in range(40):
            values = rng.sample(probes, min(len(probes), rng.randrange(0, 6)))
            assert params.are_elements(values) == all(map(params.is_element, values))
        members = [v for v in probes if params.is_element(v)]
        assert params.are_elements(members) and params.are_elements(())

    @pytest.mark.parametrize("name", GROUPS_BY_NAME)
    def test_jacobi_symbol_decides_membership_in_safe_prime_groups(self, name):
        params = GROUPS_BY_NAME[name]
        p, q = params.p, params.q
        assert p == 2 * q + 1
        for v in _membership_probes(params):
            assert (groups._jacobi(v, p) == 1) == (0 < v < p and pow(v, q, p) == 1), v

    def test_jacobi_symbol_small_cases(self):
        """Against the product of Legendre symbols over n's prime factors."""
        def legendre(a, r):
            t = pow(a, (r - 1) // 2, r)
            return -1 if t == r - 1 else t

        def factors(n):
            out, f = [], 3
            while n > 1:
                while n % f == 0:
                    out.append(f)
                    n //= f
                f += 2
            return out

        for n in range(3, 120, 2):
            for a in range(-5, 2 * n):
                want = 1
                for r in factors(n):
                    want *= legendre(a % r, r)
                assert groups._jacobi(a, n) == want, (a, n)

    def test_each_group_takes_its_path(self, monkeypatch):
        jacobi, powers = [], []
        monkeypatch.setattr(groups, "_jacobi", lambda a, n: jacobi.append(n) or 1)
        monkeypatch.setattr(groups, "pow", lambda v, e, m: powers.append(m) or 1,
                            raising=False)
        for params in _ALL_GROUPS.values():
            params.is_element(params.g)
        assert jacobi == [LARGE_GROUP.p]
        assert powers == [73369]
        tabled = [name for name, params in _ALL_GROUPS.items() if params._log_table()]
        assert tabled == ["small", "mid", "p31"]


# The narrow groups whose every base is probed, and one near the table's
# limit, p < 2^16, which is probed on a sample.
_NARROW_GROUPS = {"small": SMALL_GROUP, "p31": _ALL_GROUPS["p31"],
                  "p227": validate_group(227, 113, 4), "mid": MID_GROUP}
_NEAR_LIMIT = validate_group(65267, 32633, 4)


def _outcome(f, *args):
    """``f(*args)``, or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:        # noqa: BLE001 - the type is the answer
        return type(exc)


class TestLogTables:
    """A group with p < 2^16 raises members by reading its tables of
    powers and logarithms; every value, and every exception type, is
    builtin ``pow``'s, for members, non-members, 0, x >= p and x < 0."""

    @staticmethod
    def _exponents(q, rng):
        return [0, 1, q - 1, q, q + 1, -1, -q, 2**70,
                *(rng.randrange(-3 * q, 3 * q) for _ in range(4))]

    @pytest.mark.parametrize("name", _NARROW_GROUPS)
    def test_exp_matches_pow_for_every_base(self, name):
        params = _NARROW_GROUPS[name]
        p, q = params.p, params.q
        rng = random.Random(p)
        exponents = self._exponents(q, rng)
        for x in [-1, *range(p + 2)]:
            for e in exponents:
                assert _outcome(params.exp, x, e) == _outcome(pow, x, e, p), (x, e)

    def test_exp_matches_pow_near_the_table_limit(self):
        params, rng = _NEAR_LIMIT, random.Random(1)
        p, q = params.p, params.q
        members = [pow(params.g, rng.randrange(q), p) for _ in range(100)]
        bases = [-1, 0, 1, p - 1, p, p + 1, *members, *(p - v for v in members),
                 *(rng.randrange(p) for _ in range(100))]
        for x in bases:
            for e in self._exponents(q, rng):
                assert _outcome(params.exp, x, e) == _outcome(pow, x, e, p), (x, e)

    @pytest.mark.parametrize("name", _NARROW_GROUPS)
    def test_bools_and_floats_go_to_pow(self, name):
        params = _NARROW_GROUPS[name]
        for x, e in ((True, 3), (False, 2), (True, -1), (params.g, True),
                     (1.0, 2), (params.g, 2.0), (params.g, -1.0)):
            assert _outcome(params.exp, x, e) == _outcome(pow, x, e, params.p), (x, e)

    @pytest.mark.parametrize("params", [*_NARROW_GROUPS.values(), _NEAR_LIMIT],
                             ids=[*_NARROW_GROUPS, "p65267"])
    def test_inv_matches_pow(self, params):
        p = params.p
        bases = range(-1, p + 2) if params is not _NEAR_LIMIT else [
            -1, 0, 1, p - 1, p, p + 1, *random.Random(2).sample(range(p), 200)]
        for x in bases:
            assert _outcome(params.inv, x) == _outcome(pow, x, -1, p), x
        with pytest.raises(ValueError):
            params.inv(0)

    @pytest.mark.parametrize("name", _NARROW_GROUPS)
    def test_tables_hold_powers_and_logarithms(self, name):
        params = _NARROW_GROUPS[name]
        p, q, g = params.p, params.q, params.g
        assert params._log_table() is params.logs
        assert params.powers == [pow(g, i, p) for i in range(q)]
        assert len(params.logs) == p
        for v, log in enumerate(params.logs):
            assert (log is not None) == (0 < v < p and pow(v, q, p) == 1), v
            assert log is None or params.powers[log] == v

    def test_wider_groups_keep_no_log_table(self):
        for params in (LARGE_GROUP, _ALL_GROUPS["p73369"]):
            assert params._log_table() is None
            assert params.powers is None and params.logs is None

    def test_tables_are_built_on_first_use(self):
        params = GroupParams(p=MID_GROUP.p, q=MID_GROUP.q, g=MID_GROUP.g)
        assert params.logs is None and params.powers is None
        assert params.exp(params.g, 5) == pow(params.g, 5, params.p)
        assert params.logs is not None and params.powers is not None

    # Unvalidated groups: g of order 22, 1 and 2 mod 23; p = 91 = 7 * 13 is
    # not prime, so 9, of order 3, does not span the nine cube roots of 1.
    @pytest.mark.parametrize("p, q, g", [(23, 11, 5), (23, 11, 1), (23, 11, 22),
                                         (91, 3, 9), (23, 0, 2), (23, 30, 5)])
    def test_groups_with_a_bad_generator_keep_pow(self, p, q, g):
        params = GroupParams(p=p, q=q, g=g)
        for x in range(-1, p + 2):
            for e in (0, 1, 2, q - 1, q, q + 1, -1, 2**70):
                assert _outcome(params.exp, x, e) == _outcome(pow, x, e, p), (x, e)
            assert _outcome(params.inv, x) == _outcome(pow, x, -1, p), x
            assert params.is_element(x) == (0 < x < p and pow(x, q, p) == 1), x
        assert params.logs is None and params.powers is None


_MULTI_BASES = st.one_of(st.integers(0, _P - 1), st.sampled_from([0, 1, _P - 1]))


class TestMultiExp:
    """``multi_exp`` equals the product of builtin ``pow`` results, for any
    base, members or not, and any exponent e >= 0."""

    @given(pairs=st.lists(st.tuples(_MULTI_BASES, st.one_of(
        st.integers(0, 2**64), st.integers(0, 2**300), st.sampled_from([0, 1, _Q, _Q - 1]))),
        max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_matches_pow_products(self, pairs):
        for params in (LARGE_GROUP, MID_GROUP):
            want = 1
            for x, e in pairs:
                want = want * pow(x, e, params.p) % params.p
            assert params.multi_exp([x for x, _ in pairs], [e for _, e in pairs]) == want

    def test_empty_product_is_one(self):
        assert LARGE_GROUP.multi_exp([], []) == 1
        assert LARGE_GROUP.multi_exp([5, 7], [0, 0]) == 1
