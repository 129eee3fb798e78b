"""Countermeasures, each behind a flag so runs can show life with and
without them.

* ``ni_proofs``: hashed challenges everywhere.  Removes the verifier from
  the challenge loop, which kills every relay/transform trick on the proofs.
* ``authenticate``: every post carries a keyed tag checked against a local
  registry.  Models message authentication without dragging in real PKI.
* ``noise_product_check``: pre- and post-publication product sanity checks
  in the outcome round, including redraw-and-repost for collapsed cells.
* ``key_consistency``: the decryption proof additionally binds the keygen
  share, so decrypting with a substitute exponent becomes unprovable.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass

from .board import BulletinBoard, Post, canonical_bytes
from .errors import UnknownAuthor
from .groups import GroupParams
from . import sigma


@dataclass
class DefenseFlags:
    ni_proofs: bool = False
    authenticate: bool = False
    noise_product_check: bool = False
    key_consistency: bool = False

    @classmethod
    def all_on(cls) -> "DefenseFlags":
        return cls(True, True, True, True)

    def as_dict(self) -> dict:
        return {
            "ni_proofs": self.ni_proofs,
            "authenticate": self.authenticate,
            "noise_product_check": self.noise_product_check,
            "key_consistency": self.key_consistency,
        }


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
                      kind: str, payload: dict) -> str:
    """Keyed tag over the canonical bytes of (round, author, kind, payload)."""
    if key is None:
        raise UnknownAuthor(f"no tag key available for {author!r}")
    msg = canonical_bytes({"round": round_name, "author": author,
                           "kind": kind, "payload": payload})
    return hmac.new(key, msg, hashlib.sha256).hexdigest()


def verify_post(registry: AuthRegistry, post: Post) -> bool:
    if post.author not in registry.keys:
        raise UnknownAuthor(f"author {post.author!r} is not registered")
    if post.auth is None:
        return False
    expect = authenticate_post(registry.keys[post.author], post.round,
                               post.author, post.kind, post.payload)
    return hmac.compare_digest(expect, post.auth)


# --------------------------------------------------------------------------
# Outcome round product checks
# --------------------------------------------------------------------------

def scan_exceptional_bases(params: GroupParams, board: BulletinBoard,
                           n: int, k: int) -> list[tuple[int, int]]:
    """All cells (1-based) that need a restart: their alpha base product
    collapsed to 1 by chance.  Structurally empty cells (the lone cell of a
    one-bidder, one-price auction) are exempt."""
    from .protocol import (base_is_structurally_empty, collect_bids,
                           compute_outcome_bases)

    bases = compute_outcome_bases(params, *collect_bids(board, n))
    return [
        (i + 1, j + 1)
        for i in range(n)
        for j in range(k)
        if bases[i][j][0] == 1 and not base_is_structurally_empty(n, k, i, j)
    ]


def _gamma_products(params: GroupParams, board: BulletinBoard, n: int):
    from .protocol import collect_outcome

    gammas, _ = collect_outcome(board, n)
    k = len(gammas[0][0])
    out = [[1] * k for _ in range(n)]
    for i in range(n):
        for j in range(k):
            for a in range(n):
                out[i][j] = out[i][j] * gammas[a][i][j] % params.p
    return out


def check_noise_products(params: GroupParams, board: BulletinBoard,
                         n: int, k: int) -> list[tuple[int, int]]:
    """Cells (1-based) where the product of all masking shares is 1, i.e.
    the joint exponent collapsed to zero and the cell would read as a win
    no matter the bids.  The cure is redrawing exponents there."""
    from .protocol import base_is_structurally_empty

    products = _gamma_products(params, board, n)
    return [
        (i + 1, j + 1)
        for i in range(n)
        for j in range(k)
        if products[i][j] == 1 and not base_is_structurally_empty(n, k, i, j)
    ]


def check_noise_cancellation(params: GroupParams, board: BulletinBoard,
                             n: int, k: int) -> list[tuple[int, int]]:
    """Cells (1-based) where the product of all masking shares equals the
    bare base product, i.e. the joint exponent is exactly 1.  Honest
    exponents land there with negligible probability; an attacker stripping
    everyone else's masking with unit exponent lands there always.  (An
    attacker using a different secret exponent does not, which is why this
    check alone is not a fix.)"""
    from .protocol import (base_is_structurally_empty, collect_bids,
                           compute_outcome_bases)

    products = _gamma_products(params, board, n)
    bases = compute_outcome_bases(params, *collect_bids(board, n))
    out = []
    for i in range(n):
        for j in range(k):
            if base_is_structurally_empty(n, k, i, j):
                continue
            ba = bases[i][j][0]
            if ba != 1 and products[i][j] == ba:
                out.append((i + 1, j + 1))
    return out


# --------------------------------------------------------------------------
# Key-consistent decryption proof
# --------------------------------------------------------------------------

def key_consistency_statement(params: GroupParams, y_share: int,
                              delta_products: list[int],
                              phis: list[int]) -> sigma.EQDLStatement:
    """One exponent ties the keygen share to every decryption share."""
    return sigma.EQDLStatement(
        gens=(params.g, *delta_products),
        targets=(y_share, *phis),
    )


def key_consistency_prove(params: GroupParams, y_share: int, x: int,
                          delta_products: list[int], phis: list[int],
                          rng: random.Random,
                          challenge_source: sigma.ChallengeSource) -> sigma.Transcript:
    stmt = key_consistency_statement(params, y_share, delta_products, phis)
    return sigma.eqdl_run(params, stmt, x, rng, challenge_source)


def key_consistency_verify(params: GroupParams, y_share: int,
                           delta_products: list[int], phis: list[int],
                           tr: sigma.Transcript, require_hashed: bool) -> bool:
    stmt = key_consistency_statement(params, y_share, delta_products, phis)
    return sigma.verify_transcript(params, stmt, tr, require_hashed=require_hashed)
