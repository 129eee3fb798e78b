"""Append-only bulletin board: the protocol's only broadcast channel.

Posts are never mutated or deleted; corrections are fresh posts that readers
merge by sequence order.  Payloads are plain dicts of ints, strings and
lists; a deterministic byte encoding of the payload is what authentication
tags cover and what the JSON export emits (hex), so two runs with the same
seeds produce byte-identical transcripts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


def canonical_bytes(obj) -> bytes:
    """Deterministic, self-delimiting encoding for payload trees.

    ints are minimal big-endian with a length prefix, strings are UTF-8,
    lists and dicts are length-prefixed sequences (dict keys sorted).
    """
    parts: list[bytes] = []
    _encode(obj, parts.append)
    return b"".join(parts)


# Types the encoder dispatches on directly; anything else (None, bools,
# subclasses, unsupported values) is classified by ``_kind``.
_EXACT_TYPES = frozenset({int, str, list, tuple, dict})


def _kind(obj) -> type:
    """The branch ``obj`` is encoded by, tested in the order None, bool, int,
    str, list or tuple, dict."""
    if obj is None:
        return type(None)
    for kind in (bool, int, str, list, tuple, dict):
        if isinstance(obj, kind):
            return kind
    raise ValueError(f"unsupported payload type: {type(obj).__name__}")


def _encode(obj, put) -> None:
    """Hand ``obj``'s encoding to ``put`` piece by piece.  The ints in a
    list and the string keys of a dict, most of a payload's leaves, are
    encoded in the container's loop rather than by a call each."""
    kind = type(obj)
    if kind not in _EXACT_TYPES:
        kind = _kind(obj)
    if kind is int:
        if obj < 0:
            raise ValueError("payload ints must be non-negative")
        enc = obj.to_bytes((obj.bit_length() + 7) // 8 or 1, "big")
        put(b"i" + len(enc).to_bytes(4, "big") + enc)
    elif kind is list or kind is tuple:
        put(b"l" + len(obj).to_bytes(4, "big"))
        for item in obj:
            if type(item) is int and item >= 0:
                enc = item.to_bytes((item.bit_length() + 7) // 8 or 1, "big")
                put(b"i" + len(enc).to_bytes(4, "big") + enc)
            else:
                _encode(item, put)
    elif kind is str:
        enc = obj.encode("utf-8")
        put(b"s" + len(enc).to_bytes(4, "big") + enc)
    elif kind is dict:
        put(b"d" + len(obj).to_bytes(4, "big"))
        for key in sorted(obj):
            if type(key) is str:
                enc = key.encode("utf-8")
                put(b"s" + len(enc).to_bytes(4, "big") + enc)
            elif isinstance(key, str):
                _encode(key, put)
            else:
                raise ValueError("payload dict keys must be strings")
            _encode(obj[key], put)
    elif kind is bool:
        put(b"b1" if obj else b"b0")
    else:
        put(b"n")


@dataclass(frozen=True)
class Post:
    seq: int
    round: str
    author: str
    kind: str
    payload: dict
    auth: str | None = None

    def payload_bytes(self) -> bytes:
        return canonical_bytes(self.payload)


@dataclass
class BulletinBoard:
    posts: list[Post] = field(default_factory=list)

    def append(self, round: str, author: str, kind: str, payload: dict,
               auth: str | None = None) -> Post:
        post = Post(seq=len(self.posts), round=round, author=author,
                    kind=kind, payload=payload, auth=auth)
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
        return [
            {
                "seq": post.seq,
                "round": post.round,
                "author": post.author,
                "kind": post.kind,
                "payload": post.payload_bytes().hex(),
                "auth": post.auth,
            }
            for post in self.posts
        ]
