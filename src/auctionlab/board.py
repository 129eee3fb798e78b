"""Append-only bulletin board: the protocol's only broadcast channel.

Posts are never mutated or deleted; corrections are fresh posts that readers
merge by sequence order.  Payloads are dicts of ints, strings and lists.
``BulletinBoard.append`` posts a deep-frozen copy of the payload, whose
dicts and lists refuse every change (``FrozenDict``, ``FrozenList``), so
its author's later edits to their own dict do not reach the board.  A
tagged post is walked once: the walk that freezes it also makes its
canonical bytes (``canonical_bytes``), which the post stores.  Those stored
bytes are what its authentication tag covers (``spliced_bytes``), so no
post is encoded twice.  The walk reads the bytes of exact ints below 2^16
and of up to 256 exact strs of at most 32 characters from memos filled the
first time each value is encoded; an entry is those very bytes, so a post
encodes the same with the memos full or empty.  The JSON export emits every
post's canonical bytes (hex), so two runs with the same seeds produce
byte-identical transcripts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


def _read_only(self, *args, **kwargs):
    raise TypeError("a posted payload cannot be changed")


class FrozenDict(dict):
    """A posted payload's dict: it refuses every change.  Copies, shallow
    or deep, and pickles are plain dicts."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return dict, (dict(self),)


class FrozenList(list):
    """A posted payload's list: it refuses every change.  Copies, shallow
    or deep, and pickles are plain lists."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only

    def __reduce__(self):
        return list, (list(self),)


# The exact types of a payload's mappings and lists, before and after
# ``append``; readers that refuse subclasses test against these.
DICT_TYPES = (dict, FrozenDict)
LIST_TYPES = (list, tuple, FrozenList)


def canonical_bytes(obj, freeze: bool = False):
    """Deterministic, self-delimiting encoding for payload trees.

    ints are minimal big-endian with a length prefix, strings are UTF-8,
    lists and dicts are length-prefixed sequences (dict keys sorted).  With
    ``freeze``, returns ``(copy, bytes)``: the same walk also makes ``copy``,
    ``obj`` deep-frozen (``_walk``).
    """
    parts: list[bytes] = []
    frozen = _walk(obj, parts.append)
    data = b"".join(parts)
    return (frozen, data) if freeze else data


def spliced_bytes(mapping: dict, key: str, value_bytes: bytes) -> bytes:
    """``canonical_bytes`` of ``mapping`` with ``key`` added, for a value
    whose canonical bytes are ``value_bytes``: those bytes are spliced in,
    not encoded again."""
    parts = [b"d" + (len(mapping) + 1).to_bytes(4, "big")]
    put = parts.append
    for name in sorted([*mapping, key]):
        _walk(name, put)
        if name == key:
            put(value_bytes)
        else:
            _walk(mapping[name], put)
    return b"".join(parts)


# The branch each exact type is encoded by; anything else (None, bools,
# subclasses, unsupported values) is classified by ``_kind``.
_BRANCHES = {int: int, str: str, list: list, tuple: list, FrozenList: list,
             dict: dict, FrozenDict: dict}


def _kind(obj) -> type:
    """The branch ``obj`` is encoded by, tested in the order None, bool, int,
    str, list or tuple, dict."""
    if obj is None:
        return type(None)
    for kind, branch in ((bool, bool), (int, int), (str, str), (list, list),
                         (tuple, list), (dict, dict)):
        if isinstance(obj, kind):
            return branch
    raise ValueError(f"unsupported payload type: {type(obj).__name__}")


# The walk fills its frozen copies past their read-only methods.
_set_entry = dict.__setitem__
_set_item = list.__setitem__

# Memos of the leaves payloads repeat most, value -> canonical bytes: every
# exact int below 2^16 (so at most 2^16 entries) and up to 256 exact strs of
# at most 32 characters (dict keys, hash names).  An entry is stored the
# first time its value is encoded, as the bytes that encoding made, so a
# read gives the bytes encoding it again would give.  Only exact ints and
# strs are looked up or stored: True, 1.0 and subclasses (which may carry
# their own methods) equal such a value but are always encoded afresh.
_INT_MEMO_LIMIT = 1 << 16
_STR_MEMO_CAP, _STR_MEMO_LENGTH = 256, 32
_int_memo: dict[int, bytes] = {}
_str_memo: dict[str, bytes] = {}


def _int_bytes(obj) -> bytes:
    """An int's canonical bytes, encoded afresh; an exact int below
    ``_INT_MEMO_LIMIT`` is also stored in the int memo."""
    if obj < 0:
        raise ValueError("payload ints must be non-negative")
    enc = obj.to_bytes((obj.bit_length() + 7) // 8 or 1, "big")
    data = b"i" + len(enc).to_bytes(4, "big") + enc
    if type(obj) is int and obj < _INT_MEMO_LIMIT:
        _int_memo[obj] = data
    return data


def _str_bytes(obj) -> bytes:
    """A str's canonical bytes, encoded afresh; a short exact str is also
    stored in the str memo while it has room."""
    enc = obj.encode("utf-8")
    data = b"s" + len(enc).to_bytes(4, "big") + enc
    if (type(obj) is str and len(obj) <= _STR_MEMO_LENGTH
            and len(_str_memo) < _STR_MEMO_CAP):
        _str_memo[obj] = data
    return data


def _walk(obj, put):
    """Hand ``obj``'s encoding to ``put`` piece by piece, and return ``obj``
    deep-frozen: a dict as a ``FrozenDict`` in its own key order, a list as
    a ``FrozenList``, a tuple as a tuple, each of frozen entries.  Anything
    else, subclasses of dict, list and tuple included, is returned as it is.
    The ints in a list, and the string keys and the int and string values
    of a dict, most of a payload's leaves, are encoded in the container's
    loop rather than by a call each, read from the memos when they hold
    them.  A container is copied whole first, and only its entries that are
    containers are replaced."""
    cls = type(obj)
    kind = _BRANCHES.get(cls) or _kind(obj)
    if kind is int:
        put((cls is int and _int_memo.get(obj)) or _int_bytes(obj))
    elif kind is list:
        put(b"l" + len(obj).to_bytes(4, "big"))
        copy = FrozenList(obj) if cls is list or cls is FrozenList else list(obj)
        for i, item in enumerate(obj):
            if type(item) is int:
                put(_int_memo.get(item) or _int_bytes(item))
            else:
                frozen = _walk(item, put)
                if frozen is not item:
                    _set_item(copy, i, frozen)
        if cls is tuple:
            return tuple(copy)
        if cls is list or cls is FrozenList:
            return copy
    elif kind is str:
        put((cls is str and _str_memo.get(obj)) or _str_bytes(obj))
    elif kind is dict:
        put(b"d" + len(obj).to_bytes(4, "big"))
        copy = FrozenDict(obj)
        for key in sorted(obj):
            if type(key) is str:
                put(_str_memo.get(key) or _str_bytes(key))
            elif isinstance(key, str):
                put(_str_bytes(key))
            else:
                raise ValueError("payload dict keys must be strings")
            value = obj[key]
            if type(value) is int:
                put(_int_memo.get(value) or _int_bytes(value))
            elif type(value) is str:
                put(_str_memo.get(value) or _str_bytes(value))
            else:
                frozen = _walk(value, put)
                if frozen is not value:
                    _set_entry(copy, key, frozen)
        if cls in DICT_TYPES:
            return copy
    elif kind is bool:
        put(b"b1" if obj else b"b0")
    else:
        put(b"n")
    return obj


# The frozen type of each container type ``_walk`` freezes.
_FROZEN = {dict: FrozenDict, FrozenDict: FrozenDict, list: FrozenList,
           FrozenList: FrozenList, tuple: tuple}


def _freeze(obj):
    """``obj`` deep-frozen as ``_walk`` freezes it, without encoding it."""
    frozen = _FROZEN.get(type(obj))
    if frozen is FrozenDict:
        return FrozenDict({key: _freeze(value) if type(value) in _FROZEN else value
                           for key, value in obj.items()})
    if frozen is None:
        return obj
    return frozen([_freeze(item) if type(item) in _FROZEN else item for item in obj])


@dataclass(frozen=True)
class Post:
    """One post.  ``payload`` is frozen; ``encoded`` holds its canonical
    bytes for a tagged post, None for an untagged one or when the encoder
    refused the payload."""

    seq: int
    round: str
    author: str
    kind: str
    payload: dict
    auth: str | None = None
    encoded: bytes | None = field(default=None, repr=False)

    def payload_bytes(self) -> bytes:
        """The stored bytes; a payload stored without them is encoded here,
        where one the encoder refuses raises its error."""
        if self.encoded is None:
            return canonical_bytes(self.payload)
        return self.encoded


@dataclass
class BulletinBoard:
    posts: list[Post] = field(default_factory=list)

    def append(self, round: str, author: str, kind: str, payload: dict,
               auth: str | None = None, sign=None) -> Post:
        """Post a deep-frozen copy of ``payload``.  A tagged post, one with
        ``auth`` or ``sign``, also keeps the payload's canonical bytes, made
        in the same walk; ``sign`` is called with them and its tag replaces
        ``auth``.  A tagged payload the encoder refuses is posted without
        bytes, and with ``sign`` without a tag, so it fails its tag check.
        An untagged post is only frozen: nothing reads its bytes but the
        JSON export."""
        encoded = None
        if auth is None and sign is None:
            payload = _freeze(payload)
        else:
            try:
                payload, encoded = canonical_bytes(payload, freeze=True)
            except (ValueError, TypeError):
                payload = _freeze(payload)
            if sign is not None and encoded is not None:
                auth = sign(encoded)
        post = Post(seq=len(self.posts), round=round, author=author,
                    kind=kind, payload=payload, auth=auth, encoded=encoded)
        self.posts.append(post)
        return post

    def select(self, round: str | None = None, kind: str | None = None,
               author: str | None = None) -> Iterator[Post]:
        for post in self.posts:
            if round is not None and post.round != round:
                continue
            if kind is not None and post.kind != kind:
                continue
            if author is not None and post.author != author:
                continue
            yield post

    def latest_by_author(self, round: str, kind: str) -> dict[str, Post]:
        """Last post per author for the given round and kind."""
        out: dict[str, Post] = {}
        for post in self.select(round=round, kind=kind):
            out[post.author] = post
        return out

    def to_json(self) -> list[dict]:
        """One entry per post, its payload as the hex of its canonical
        bytes.  A payload the encoder refuses is exported as null, with the
        encoder's message under ``payload_error``; a tag that is neither a
        str nor None, as null with its type named under ``auth_error``."""
        entries = []
        for post in self.posts:
            entry = {"seq": post.seq, "round": post.round, "author": post.author,
                     "kind": post.kind, "payload": None, "auth": post.auth}
            try:
                entry["payload"] = post.payload_bytes().hex()
            except (ValueError, TypeError) as exc:
                entry["payload_error"] = str(exc)
            if post.auth is not None and not isinstance(post.auth, str):
                entry["auth"] = None
                entry["auth_error"] = f"tag of type {type(post.auth).__name__}"
            entries.append(entry)
        return entries
