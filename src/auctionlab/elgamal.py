"""Distributed ElGamal over a prime-order subgroup.

Each party holds a key share x_a with public part y_a = g^x_a; the joint
public key is the product of all y_a.  Decryption needs one partial from
every share holder: ciphertext (alpha, beta) opens to
alpha / beta^(sum of x_a).  Multiplying ciphertexts multiplies plaintexts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import EmptyPartials, EmptyShareList
from .groups import GroupParams


@dataclass(frozen=True)
class KeyShare:
    """One party's key material: secret exponent x, public part y = g^x."""

    x: int
    y: int


@dataclass(frozen=True)
class Ciphertext:
    alpha: int
    beta: int


def gen_keyshare(params: GroupParams, rng: random.Random) -> KeyShare:
    """Draw x uniformly from 1..q-1 and derive y = g^x."""
    x = rng.randrange(1, params.q)
    return KeyShare(x=x, y=params.exp(params.g, x))


def aggregate_keys(params: GroupParams, shares: list[int]) -> int:
    """Multiply the public shares into the joint key.  Order-insensitive."""
    if not shares:
        raise EmptyShareList("no public key shares to aggregate")
    return params.mul(*shares)


def encrypt(params: GroupParams, m: int, y: int, r: int) -> Ciphertext:
    """Encrypt subgroup element m under joint key y with randomiser r."""
    return Ciphertext(
        alpha=m * params.exp(y, r) % params.p,
        beta=params.exp(params.g, r),
    )


def ct_mul(params: GroupParams, a: Ciphertext, b: Ciphertext) -> Ciphertext:
    """Componentwise product; decrypts to the product of the plaintexts."""
    return Ciphertext(alpha=a.alpha * b.alpha % params.p, beta=a.beta * b.beta % params.p)


def partial_decrypt(params: GroupParams, beta: int, share: KeyShare) -> int:
    """This share holder's contribution beta^x to opening a ciphertext."""
    return params.exp(beta, share.x)


def combine_decrypt(params: GroupParams, alpha: int, partials: list[int]) -> int:
    """alpha divided by the product of all partials; needs every holder."""
    if not partials:
        raise EmptyPartials("no decryption partials to combine")
    return alpha * params.inv(params.mul(*partials)) % params.p
