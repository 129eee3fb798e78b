"""The board's payload encoder and the Fiat-Shamir statement encoder give
the same bytes and raise the same errors as their first, plain versions,
which are kept here verbatim as the reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import board, sigma
from auctionlab.board import BulletinBoard, FrozenDict, FrozenList, canonical_bytes
from auctionlab.groups import LARGE_GROUP, MID_GROUP, SMALL_GROUP, validate_group


def reference_canonical_bytes(obj) -> bytes:
    if obj is None:
        return b"n"
    if isinstance(obj, bool):
        return b"b1" if obj else b"b0"
    if isinstance(obj, int):
        if obj < 0:
            raise ValueError("payload ints must be non-negative")
        enc = obj.to_bytes((obj.bit_length() + 7) // 8 or 1, "big")
        return b"i" + len(enc).to_bytes(4, "big") + enc
    if isinstance(obj, str):
        enc = obj.encode("utf-8")
        return b"s" + len(enc).to_bytes(4, "big") + enc
    if isinstance(obj, (list, tuple)):
        parts = [b"l", len(obj).to_bytes(4, "big")]
        parts.extend(reference_canonical_bytes(item) for item in obj)
        return b"".join(parts)
    if isinstance(obj, dict):
        parts = [b"d", len(obj).to_bytes(4, "big")]
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ValueError("payload dict keys must be strings")
            parts.append(reference_canonical_bytes(key))
            parts.append(reference_canonical_bytes(obj[key]))
        return b"".join(parts)
    raise ValueError(f"unsupported payload type: {type(obj).__name__}")


def reference_serialize_statement(params, stmt, commitments) -> bytes:
    width = (params.p.bit_length() + 7) // 8
    parts = [sigma._DOMAIN_TAGS[type(stmt)]]
    for v in (params.p, params.q, params.g, *sigma._statement_elements(stmt),
              *commitments):
        enc = int(v).to_bytes(width, "big")
        parts.append(len(enc).to_bytes(4, "big"))
        parts.append(enc)
    return b"".join(parts)


def outcome(fn, *args):
    """The bytes ``fn`` returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:   # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


class Count(int):
    """An int subclass: encoded by the int branch, through its own methods."""


class Label(str):
    """A str subclass."""


class Row(list):
    """A list subclass."""


class Table(dict):
    """A dict subclass."""


LEAVES = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
          | st.text(max_size=6) | st.floats(allow_nan=False)
          | st.integers(0, 2**40).map(Count) | st.text(max_size=4).map(Label))
KEYS = st.text(max_size=4) | st.integers(-3, 3) | st.text(max_size=3).map(Label)
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(inner, max_size=3).map(Row)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)
                   | st.dictionaries(KEYS, inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3).map(Table)),
    max_leaves=16)


class TestCanonicalBytesMatchesReference:
    @given(PAYLOADS)
    @settings(max_examples=250)
    def test_same_bytes_or_same_error(self, obj):
        assert outcome(canonical_bytes, obj) == outcome(reference_canonical_bytes, obj)

    @pytest.mark.parametrize("obj", [
        None, True, False, 0, 255, -1, Count(7), "", "é", Label("k"), [], (),
        [None, [True, (1, "a")]], {}, {"b": 1, "a": [2]}, {1: 2}, {"a": 1, 2: 3},
        {"a": {"b": -5}}, 1.5, b"raw", {1, 2}, Row([1, Table(a=2)]),
        2**2100, [2**2100], "x" * 300, {"y" * 300: 1},
    ])
    def test_edge_values(self, obj):
        assert outcome(canonical_bytes, obj) == outcome(reference_canonical_bytes, obj)


class Padded(int):
    """An int subclass whose own ``to_bytes`` adds a zero byte: a memo that
    served it the equal int's entry would show."""

    def to_bytes(self, length, byteorder, **kwargs):
        return int.to_bytes(self, length + 1, byteorder, **kwargs)


class Shouted(str):
    """A str subclass whose own ``encode`` upper-cases."""

    def encode(self, *args, **kwargs):
        return str.encode(self.upper(), *args, **kwargs)


@pytest.fixture
def empty_memos():
    """Start with empty encoder memos, and leave them empty."""
    board._int_memo.clear()
    board._str_memo.clear()
    yield
    board._int_memo.clear()
    board._str_memo.clear()


def placements(value):
    """``value`` where the walk reads each kind of leaf: alone, in a list,
    as a dict value and, for a str, as a dict key."""
    places = [value, [value], {"v": value}]
    if isinstance(value, str):
        places.append({value: 0})
    return places


@pytest.mark.usefixtures("empty_memos")
class TestEncoderMemos:
    """The board encoder's memos of leaf bytes: whatever was encoded first,
    every leaf gets the bytes the reference encoder gives it."""

    @pytest.mark.parametrize("first,second", [
        (7, Count(7)), (Count(7), 7), (7, Padded(7)), (Padded(7), 7),
        (1, True), (True, 1), (0, False), (False, 0),
        ("sha256", Label("sha256")), (Label("sha256"), "sha256"),
        ("com", Shouted("com")), (Shouted("com"), "com"),
    ])
    def test_equal_values_of_other_types(self, first, second):
        for obj in (*placements(first), *placements(second)):
            assert canonical_bytes(obj) == reference_canonical_bytes(obj)
            frozen, data = canonical_bytes(obj, freeze=True)
            assert data == reference_canonical_bytes(obj)
            assert frozen_form(frozen) == frozen_form(obj, frozen=True)

    @pytest.mark.parametrize("value", [2**16 - 1, 2**16, 2**16 + 1, 2**2100])
    def test_ints_around_the_limit(self, value):
        for _ in range(2):                   # fill, then read
            for obj in placements(value):
                assert canonical_bytes(obj) == reference_canonical_bytes(obj)
        assert (value in board._int_memo) == (value < board._INT_MEMO_LIMIT)

    def test_negative_ints_refused_after_their_absolute_value(self):
        canonical_bytes([5, {"v": 5}])
        for obj in placements(-5):
            assert outcome(canonical_bytes, obj) == outcome(reference_canonical_bytes, obj)

    def test_memos_stay_within_their_caps(self):
        values = list(range(1 << 17))
        assert canonical_bytes(values) == reference_canonical_bytes(values)
        assert len(board._int_memo) == board._INT_MEMO_LIMIT
        keys = {f"k{i}": i for i in range(4 * board._STR_MEMO_CAP)}
        keys["x" * (board._STR_MEMO_LENGTH + 1)] = 0
        assert canonical_bytes(keys) == reference_canonical_bytes(keys)
        assert len(board._str_memo) == board._STR_MEMO_CAP
        assert all(len(key) <= board._STR_MEMO_LENGTH for key in board._str_memo)
        assert canonical_bytes(keys) == reference_canonical_bytes(keys)


def frozen_and_bytes(obj):
    """The board's one walk: a deep-frozen copy of ``obj`` and its bytes."""
    return canonical_bytes(obj, freeze=True)


def frozen_form(obj, frozen=False):
    """The types of ``obj``'s containers and the identities of its other
    values.  With ``frozen``, as the walk must freeze ``obj``: dicts as
    FrozenDict, lists as FrozenList and tuples as tuples; everything else,
    subclasses included, stays the very same object."""
    kind = type(obj)
    if kind in (dict, FrozenDict):
        return (FrozenDict if frozen else kind,
                [(key, frozen_form(value, frozen)) for key, value in obj.items()])
    if kind in (list, FrozenList, tuple):
        return (FrozenList if frozen and kind is list else kind,
                [frozen_form(item, frozen) for item in obj])
    return id(obj)


class TestFreezeAndEncodeMatchesReference:
    """The walk that freezes a tagged post's payload also encodes it, with
    the encoder's bytes or error."""

    @given(PAYLOADS)
    @settings(max_examples=250)
    def test_same_bytes_or_same_error(self, obj):
        want = outcome(reference_canonical_bytes, obj)
        try:
            frozen, data = frozen_and_bytes(obj)
        except Exception as exc:   # noqa: BLE001 - the error itself is compared
            assert (type(exc), str(exc)) == want
            return
        assert data == want
        assert frozen == obj and repr(frozen) == repr(obj)
        assert frozen_form(frozen) == frozen_form(obj, frozen=True)

    @given(PAYLOADS)
    @settings(max_examples=150)
    def test_untagged_posts_are_frozen_alike(self, obj):
        """An untagged post, or one the encoder refuses, is frozen without
        being encoded, the same way."""
        for auth in (None, "00"):
            post = BulletinBoard().append("bid", "bidder-1", "bid", obj, auth=auth)
            assert frozen_form(post.payload) == frozen_form(obj, frozen=True)

    @pytest.mark.parametrize("obj", [
        {"b": [1, (2, [3])], "a": {"c": "x"}}, [Row([1]), Table(a=[2])],
        (1, [2]), {"y": Count(3), "z": Label("k")}, [], {},
    ])
    def test_edge_values(self, obj):
        frozen, data = frozen_and_bytes(obj)
        assert data == reference_canonical_bytes(obj)
        assert frozen_form(frozen) == frozen_form(obj, frozen=True)


# The widest kind of group that keeps a table of element encodings:
# p < 2^16.
NEAR_TABLE_LIMIT = validate_group(65267, 32633, 4)
GROUPS = (SMALL_GROUP, MID_GROUP, NEAR_TABLE_LIMIT, LARGE_GROUP)


@st.composite
def statements(draw):
    """A group, a statement of any of the four kinds with elements around
    the group's range (some out of it), and a commitment tuple."""
    params = draw(st.sampled_from(GROUPS))
    p = params.p
    element = st.integers(1, p - 1) | st.integers(-p, 300 * p)
    kind = draw(st.sampled_from(("pdl", "eqdl", "bid", "sum")))
    size = draw(st.integers(1, 4))
    vector = st.lists(element, min_size=size, max_size=size).map(tuple)
    if kind == "pdl":
        stmt = sigma.PDLStatement(g=draw(element), v=draw(element))
    elif kind == "eqdl":
        stmt = sigma.EQDLStatement(gens=draw(vector), targets=draw(vector))
    elif kind == "bid":
        stmt = sigma.BidValidityStatement(*(draw(element) for _ in range(5)))
    else:
        stmt = sigma.SumValidityStatement(draw(element), draw(element), draw(element),
                                          draw(vector), draw(vector))
    commitments = draw(st.lists(element, max_size=4).map(tuple))
    return params, stmt, commitments


class TestSerializeStatementMatchesReference:
    @given(statements())
    @settings(max_examples=250)
    def test_same_bytes_or_same_error(self, case):
        params, stmt, commitments = case
        assert (outcome(sigma.serialize_statement, params, stmt, commitments)
                == outcome(reference_serialize_statement, params, stmt, commitments))

    def test_groups_do_not_share_a_header(self):
        stmt = sigma.PDLStatement(g=2, v=3)
        for params in GROUPS + GROUPS:
            assert (sigma.serialize_statement(params, stmt, (4,))
                    == reference_serialize_statement(params, stmt, (4,)))

    def test_switching_groups_in_one_process(self):
        """Every kind of statement, in the four groups taken in a shuffled
        order, then in more groups than the header cache keeps, and back."""
        rng = random.Random(4)
        order = list(GROUPS) * 4
        rng.shuffle(order)
        extra = [validate_group(2 * q + 1, q, 4) for q in (5, 23, 29, 41, 53, 83, 89, 113)]
        for params in order + extra + order:
            v = [rng.randrange(1, params.p) for _ in range(6)]
            for stmt in (sigma.PDLStatement(*v[:2]),
                         sigma.EQDLStatement(tuple(v[:2]), tuple(v[2:4])),
                         sigma.BidValidityStatement(*v[:5]),
                         sigma.SumValidityStatement(*v[:3], tuple(v[3:5]), (v[5], v[0]))):
                assert (sigma.serialize_statement(params, stmt, v[4:])
                        == reference_serialize_statement(params, stmt, v[4:]))
            assert len(sigma._headers) <= sigma._HEADER_CAP

    @pytest.mark.parametrize("params", [SMALL_GROUP, MID_GROUP, NEAR_TABLE_LIMIT],
                             ids=["small", "mid", "p=65267"])
    @pytest.mark.parametrize("value", ["True", "1.0", "1.5", "-1", "p", "p+1", "p-1", "0"])
    def test_values_outside_the_table(self, params, value):
        """A value the table does not hold is encoded as before; -1 must not
        read p - 1's entry, and True and 1.0 encode as 1."""
        v = {"True": True, "1.0": 1.0, "1.5": 1.5, "-1": -1, "p": params.p,
             "p+1": params.p + 1, "p-1": params.p - 1, "0": 0}[value]
        stmt = sigma.PDLStatement(g=params.g, v=v)
        for commitments in ((v,), (3, v), ()):
            assert (outcome(sigma.serialize_statement, params, stmt, commitments)
                    == outcome(reference_serialize_statement, params, stmt, commitments))
        if value == "-1":
            with pytest.raises(OverflowError):
                sigma.serialize_statement(params, stmt, ())

    def test_unhashable_value(self):
        stmt = sigma.PDLStatement(g=MID_GROUP.g, v=[5])
        assert (outcome(sigma.serialize_statement, MID_GROUP, stmt, ())
                == outcome(reference_serialize_statement, MID_GROUP, stmt, ()))

    def test_unknown_statement_type(self):
        assert (outcome(sigma.serialize_statement, SMALL_GROUP, object(), ())
                == outcome(reference_serialize_statement, SMALL_GROUP, object(), ()))
