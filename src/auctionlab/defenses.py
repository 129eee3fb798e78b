"""Countermeasures, each behind a flag so runs can show life with and
without them.  The protocol calls into this module, never the other way
round: the product checks take the grids the run already holds instead of
reading the board.

* ``ni_proofs``: hashed challenges everywhere.  Removes the verifier from
  the challenge loop, which kills every relay/transform trick on the proofs.
* ``authenticate``: every post carries a keyed tag checked against a local
  registry.  Models message authentication without dragging in real PKI.
* ``noise_product_check``: pre- and post-publication product sanity checks
  in the outcome round, including redraw-and-repost for collapsed cells.
* ``key_consistency``: the decryption proof additionally binds the keygen
  share, so decrypting with a substitute exponent becomes unprovable.  The
  statement itself is built in one place, ``protocol.decrypt_statement``.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass

from .board import Post, canonical_bytes, spliced_bytes
from .errors import UnknownAuthor


@dataclass
class DefenseFlags:
    ni_proofs: bool = False
    authenticate: bool = False
    noise_product_check: bool = False
    key_consistency: bool = False

    @classmethod
    def all_on(cls) -> "DefenseFlags":
        return cls(True, True, True, True)


# --------------------------------------------------------------------------
# Authentication registry
# --------------------------------------------------------------------------

class AuthRegistry:
    """Name -> secret tag key.  Registration is the trust anchor; a post
    verifies iff its tag was made with the claimed author's key."""

    def __init__(self):
        self.keys: dict[str, bytes] = {}

    def register(self, name: str, rng: random.Random) -> bytes:
        key = rng.randbytes(32)
        self.keys[name] = key
        return key


def authenticate_post(key: bytes | None, round_name: str, author: str,
                      kind: str, payload) -> str:
    """Keyed tag over the canonical bytes of (round, author, kind, payload).
    ``payload`` is the payload's canonical bytes, as a post stores them, or
    the payload itself, encoded here.  Stored bytes are spliced in as they
    are (``board.spliced_bytes``), so the tag costs no second encoding."""
    if key is None:
        raise UnknownAuthor(f"no tag key available for {author!r}")
    if type(payload) is not bytes:
        payload = canonical_bytes(payload)
    msg = spliced_bytes({"round": round_name, "author": author, "kind": kind},
                        "payload", payload)
    return hmac.new(key, msg, hashlib.sha256).hexdigest()


def verify_post(registry: AuthRegistry, post: Post) -> bool:
    """Whether ``post`` carries its author's tag over its stored bytes.  A
    post without bytes because the encoder refused its payload fails, and
    so does one whose tag is not an ASCII str (None, bytes, an int, a str
    with other characters), which ``hmac.compare_digest`` would refuse with
    a TypeError."""
    if post.author not in registry.keys:
        raise UnknownAuthor(f"author {post.author!r} is not registered")
    auth = post.auth
    if type(auth) is not str or not auth.isascii() or post.encoded is None:
        return False
    expect = authenticate_post(registry.keys[post.author], post.round,
                               post.author, post.kind, post.encoded)
    return hmac.compare_digest(expect, auth)


# --------------------------------------------------------------------------
# Outcome round product checks
# --------------------------------------------------------------------------
# Each check reads an n x k grid (0-based) and returns 1-based cells.  The
# bases are the run's outcome-base grid of (alpha_base, beta_base) pairs;
# the Γ-products are the cell-wise products of every bidder's masking shares.

def base_is_structurally_empty(n: int, k: int, i: int, j: int) -> bool:
    """True when cell (i, j) has no factors at all (only (1,1) with k=1),
    so its base is the empty product 1 by construction, not by accident."""
    return i == 0 and j == 0 and k == 1


def scan_exceptional_bases(bases) -> list[tuple[int, int]]:
    """All cells that need a restart: their alpha base product collapsed to
    1 by chance.  Structurally empty cells (the lone cell of a one-bidder,
    one-price auction) are exempt, as in ``check_noise_products``."""
    return check_noise_products([[a for a, _ in row] for row in bases])


def check_noise_products(gamma_products) -> list[tuple[int, int]]:
    """Cells where the product of all masking shares is 1, i.e. the joint
    exponent collapsed to zero and the cell would read as a win no matter
    the bids.  The cure is redrawing exponents there."""
    n, k = len(gamma_products), len(gamma_products[0])
    return [
        (i + 1, j + 1)
        for i in range(n)
        for j in range(k)
        if gamma_products[i][j] == 1 and not base_is_structurally_empty(n, k, i, j)
    ]


def check_noise_cancellation(bases, gamma_products) -> list[tuple[int, int]]:
    """Cells where the product of all masking shares equals the bare base
    product, i.e. the joint exponent is exactly 1.  Honest exponents land
    there with negligible probability; an attacker stripping everyone
    else's masking with unit exponent lands there always.  (An attacker
    using a different secret exponent does not, which is why this check
    alone is not a fix.)"""
    n, k = len(bases), len(bases[0])
    out = []
    for i in range(n):
        for j in range(k):
            if base_is_structurally_empty(n, k, i, j):
                continue
            ba = bases[i][j][0]
            if ba != 1 and gamma_products[i][j] == ba:
                out.append((i + 1, j + 1))
    return out
