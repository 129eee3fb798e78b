"""Three-move proofs of exponent knowledge and equality, plus their
non-interactive hashed form.

Supported statements:

* knowledge of x with g^x = v (single generator);
* one common exponent across several generator/target pairs;
* a ciphertext encrypts 1 or the price marker (an OR of two equality
  statements, composed by simulating the false branch);
* a ciphertext vector encrypts exactly one marker (equality on aggregates).

One map, ``_core``, turns a knowledge, equality or sum statement into its
exponent equations gens[i]^x = targets[i]; a bid cell is the OR of two such
cores.  One prover, ``prove``, proves every statement, and its challenge
source decides the mode.  One verifier, ``verify_transcript``, checks every
statement through the cores' equations (``verify_eqdl``).

Interactive runs are deliberately unhardened: the verifier's challenge is
whatever the caller's challenge source supplies, and an honest prover will
happily open fresh sessions for the same statement.  That is the behaviour
the relay attacks in :mod:`auctionlab.attacks` exploit.  The hashed variant
derives the challenge from a canonical serialization of the statement and
commitment, which removes the verifier from the loop entirely.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import AlreadyCommitted, NotCommitted, WitnessMismatch
from .groups import GroupParams

CHALLENGE_HASH = "sha256"

# A challenge source maps (statement, flat commitment tuple) to a scalar.
ChallengeSource = Callable[[object, tuple[int, ...]], int]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PDLStatement:
    """Knowledge of x with g^x = v."""

    g: int
    v: int


@dataclass(frozen=True)
class EQDLStatement:
    """One exponent x with gens[i]^x = targets[i] for every i."""

    gens: tuple[int, ...]
    targets: tuple[int, ...]

    def __post_init__(self):
        if len(self.gens) != len(self.targets) or not self.gens:
            raise ValueError("generator and target vectors must match and be non-empty")


@dataclass(frozen=True)
class BidValidityStatement:
    """(alpha, beta) encrypts 1 or the marker under joint key y."""

    y: int
    g: int
    marker: int
    alpha: int
    beta: int


@dataclass(frozen=True)
class SumValidityStatement:
    """The componentwise product of the vector encrypts exactly one marker."""

    y: int
    g: int
    marker: int
    alphas: tuple[int, ...]
    betas: tuple[int, ...]


def branch_statements(params: GroupParams, stmt: BidValidityStatement):
    """The two cores underneath the OR: plaintext 1 / marker."""
    plain = EQDLStatement(gens=(stmt.g, stmt.y), targets=(stmt.beta, stmt.alpha))
    marked = EQDLStatement(
        gens=(stmt.g, stmt.y),
        targets=(stmt.beta, stmt.alpha * params.inv(stmt.marker) % params.p),
    )
    return plain, marked


def _core(params: GroupParams, stmt) -> EQDLStatement:
    """The exponent equations a knowledge, equality or sum statement stands
    for.  A sum statement's are its aggregates: prod(alpha)/marker = y^R and
    prod(beta) = g^R."""
    if isinstance(stmt, EQDLStatement):
        return stmt
    if isinstance(stmt, PDLStatement):
        return EQDLStatement(gens=(stmt.g,), targets=(stmt.v,))
    if isinstance(stmt, SumValidityStatement):
        v = params.mul(*stmt.alphas) * params.inv(stmt.marker) % params.p
        return EQDLStatement(gens=(stmt.y, stmt.g), targets=(v, params.mul(*stmt.betas)))
    raise TypeError(f"no single-exponent core for {type(stmt).__name__}")


# --------------------------------------------------------------------------
# Transcripts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Transcript:
    """One completed three-move run: commitment(s), challenge, response."""

    commitment: tuple[int, ...]
    challenge: int
    response: int
    hash_name: str = CHALLENGE_HASH


@dataclass(frozen=True)
class OrTranscript:
    """Two branch transcripts whose challenges split the outer challenge."""

    branches: tuple[Transcript, Transcript]
    challenge: int
    hash_name: str = CHALLENGE_HASH

    @property
    def commitment(self) -> tuple[int, ...]:
        return self.branches[0].commitment + self.branches[1].commitment


# --------------------------------------------------------------------------
# Canonical serialization and the hashed challenge
# --------------------------------------------------------------------------

_DOMAIN_TAGS = {
    PDLStatement: b"know-dl",
    EQDLStatement: b"same-dl",
    BidValidityStatement: b"bid-cell",
    SumValidityStatement: b"bid-sum",
}


def _statement_elements(stmt) -> list[int]:
    if isinstance(stmt, PDLStatement):
        return [stmt.g, stmt.v]
    if isinstance(stmt, EQDLStatement):
        return [len(stmt.gens), *stmt.gens, *stmt.targets]
    if isinstance(stmt, BidValidityStatement):
        return [stmt.y, stmt.g, stmt.marker, stmt.alpha, stmt.beta]
    if isinstance(stmt, SumValidityStatement):
        return [len(stmt.alphas), stmt.y, stmt.g, stmt.marker, *stmt.alphas, *stmt.betas]
    raise TypeError(f"unknown statement type: {type(stmt).__name__}")


@functools.lru_cache(maxsize=8)
def _group_header(params: GroupParams) -> tuple[bytes, bytes, int]:
    """The group's encoded p, q and g, the length prefix every element
    carries, and the element width."""
    width = (params.p.bit_length() + 7) // 8
    prefix = width.to_bytes(4, "big")
    header = b"".join(prefix + int(v).to_bytes(width, "big")
                      for v in (params.p, params.q, params.g))
    return header, prefix, width


def serialize_statement(params: GroupParams, stmt, commitments: Iterable[int]) -> bytes:
    """Domain tag, then p, q, g, statement elements and commitments, each as
    fixed-width big-endian bytes with a length prefix.  The p, q, g part is
    encoded once per group."""
    tag = _DOMAIN_TAGS[type(stmt)]
    values = (*_statement_elements(stmt), *commitments)
    header, prefix, width = _group_header(params)
    parts = [tag, header]
    parts.extend([prefix + int(v).to_bytes(width, "big") for v in values])
    return b"".join(parts)


def fiat_shamir_challenge(params: GroupParams, stmt, commitments: Iterable[int]) -> int:
    data = serialize_statement(params, stmt, commitments)
    digest = hashlib.new(CHALLENGE_HASH, data).digest()
    return int.from_bytes(digest, "big") % params.q


def fiat_shamir_source(params: GroupParams) -> ChallengeSource:
    return lambda stmt, com: fiat_shamir_challenge(params, stmt, com)


def verifier_source(params: GroupParams, rng: random.Random) -> ChallengeSource:
    """An interactive verifier: uniformly random challenge, statement ignored."""
    return lambda stmt, com: rng.randrange(params.q)


# --------------------------------------------------------------------------
# Prover sessions and the one prover (every statement, either mode)
# --------------------------------------------------------------------------

class ProverSession:
    """One-shot commit/respond state machine for a knowledge, equality or
    sum statement, drawing its nonce from ``rng``.  Reuse is refused; open
    a new session to prove again."""

    def __init__(self, params: GroupParams, stmt, witness: int, rng: random.Random):
        self.params = params
        self.stmt = stmt
        self.gens = _core(params, stmt).gens
        self.witness = witness % params.q
        self.rng = rng
        self.nonce: int | None = None
        self.phase = "created"

    def commit(self) -> tuple[int, ...]:
        if self.phase != "created":
            raise AlreadyCommitted("session already produced its commitment")
        self.nonce = self.rng.randrange(self.params.q)
        self.phase = "committed"
        return tuple(self.params.exp(gen, self.nonce) for gen in self.gens)

    def respond(self, challenge: int) -> int:
        if self.phase != "committed":
            raise NotCommitted("no live commitment to answer")
        self.phase = "responded"
        return (self.nonce + challenge * self.witness) % self.params.q


def prove(params: GroupParams, stmt, witness, rng: random.Random,
          challenge_source: ChallengeSource):
    """Full three-move run proving ``stmt``; the challenge source always
    sees ``stmt`` itself.  A knowledge, equality or sum statement takes the
    exponent of its core (for a sum, the randomiser sum); a bid cell takes
    ``(r, is_marker)`` and gets an OR transcript."""
    if isinstance(stmt, BidValidityStatement):
        return _prove_bid_cell(params, stmt, *witness, rng, challenge_source)
    session = ProverSession(params, stmt, witness, rng)
    com = session.commit()
    c = challenge_source(stmt, com) % params.q
    return Transcript(commitment=com, challenge=c, response=session.respond(c))


# --------------------------------------------------------------------------
# Bid cells (OR composition)
# --------------------------------------------------------------------------

def _simulate_eqdl(params: GroupParams, stmt: EQDLStatement,
                   rng: random.Random) -> Transcript:
    """Accepting transcript with no witness: pick challenge and response first,
    then solve for the commitment."""
    c = rng.randrange(params.q)
    s = rng.randrange(params.q)
    com = tuple(
        params.exp(gen, s) * params.exp(target, -c) % params.p
        for gen, target in zip(stmt.gens, stmt.targets)
    )
    return Transcript(commitment=com, challenge=c, response=s)


def _prove_bid_cell(params: GroupParams, stmt: BidValidityStatement,
                    r: int, is_marker: bool, rng: random.Random,
                    challenge_source: ChallengeSource) -> OrTranscript:
    """Prove the cell encrypts 1 or the marker without revealing which.

    The branch we do not hold a witness for is simulated with a pre-chosen
    sub-challenge; the outer challenge then pins the real branch's share.
    """
    plaintext = stmt.marker if is_marker else 1
    expect_alpha = plaintext * params.exp(stmt.y, r) % params.p
    expect_beta = params.exp(stmt.g, r)
    if (expect_alpha, expect_beta) != (stmt.alpha, stmt.beta):
        raise WitnessMismatch("ciphertext does not open to the claimed plaintext")

    plain_stmt, marked_stmt = branch_statements(params, stmt)
    real_idx = 1 if is_marker else 0
    sim_stmt = plain_stmt if is_marker else marked_stmt

    simulated = _simulate_eqdl(params, sim_stmt, rng)
    real = ProverSession(params, (plain_stmt, marked_stmt)[real_idx], r, rng)
    real_com = real.commit()

    if real_idx == 0:
        flat = real_com + simulated.commitment
    else:
        flat = simulated.commitment + real_com
    c = challenge_source(stmt, flat) % params.q
    c_real = (c - simulated.challenge) % params.q
    real_tr = Transcript(commitment=real_com, challenge=c_real,
                         response=real.respond(c_real))

    branches = (real_tr, simulated) if real_idx == 0 else (simulated, real_tr)
    return OrTranscript(branches=branches, challenge=c)


# --------------------------------------------------------------------------
# The one verifier: every statement as exponent equations
# --------------------------------------------------------------------------

def verify_eqdl(params: GroupParams, stmt: EQDLStatement, tr: Transcript) -> bool:
    """gens[i]^s = z[i] * targets[i]^c for every i, stopping at the first
    equation that fails."""
    if len(tr.commitment) != len(stmt.gens):
        return False
    for gen, target, com in zip(stmt.gens, stmt.targets, tr.commitment):
        lhs = params.exp(gen, tr.response)
        rhs = com * params.exp(target, tr.challenge) % params.p
        if lhs != rhs:
            return False
    return True


def verify_transcript(params: GroupParams, stmt, tr, require_hashed: bool) -> bool:
    """Check a transcript's algebra: a bid cell as the OR of its two branch
    cores, whose challenges must split the outer one, and every other
    statement as its core.  Under hashed challenges also check the challenge
    is exactly the canonical hash of statement and commitment."""
    if isinstance(stmt, BidValidityStatement):
        if not isinstance(tr, OrTranscript):
            return False
        plain_stmt, marked_stmt = branch_statements(params, stmt)
        (b0, b1), q = tr.branches, params.q
        ok = ((b0.challenge + b1.challenge) % q == tr.challenge % q
              and verify_eqdl(params, plain_stmt, b0)
              and verify_eqdl(params, marked_stmt, b1))
    else:
        ok = isinstance(tr, Transcript) and verify_eqdl(params, _core(params, stmt), tr)
    if not ok or not require_hashed:
        return ok
    return (tr.challenge % params.q == fiat_shamir_challenge(params, stmt, tr.commitment)
            and tr.hash_name == CHALLENGE_HASH)


# --------------------------------------------------------------------------
# Transcript <-> board payload helpers
# --------------------------------------------------------------------------

def transcript_to_payload(tr) -> dict:
    if isinstance(tr, OrTranscript):
        return {
            "or": [transcript_to_payload(b) for b in tr.branches],
            "chal": tr.challenge,
            "hash": tr.hash_name,
        }
    return {
        "com": list(tr.commitment),
        "chal": tr.challenge,
        "resp": tr.response,
        "hash": tr.hash_name,
    }


def transcript_from_payload(payload: dict):
    """Parse a posted proof.  Raises ValueError when the payload does not
    have a transcript's shape: a mapping with an integer challenge, a hash
    name, and either an integer response with a list of integer commitments
    or two such transcripts under ``or``."""
    if type(payload) is not dict:
        raise ValueError("proof is not a mapping")
    chal, hash_name = payload.get("chal"), payload.get("hash")
    if type(chal) is not int or type(hash_name) is not str:
        raise ValueError("challenge or hash name missing or of the wrong type")
    if "or" in payload:
        branches = payload["or"]
        if type(branches) not in (list, tuple) or len(branches) != 2:
            raise ValueError("an OR proof needs two branches")
        return OrTranscript(branches=(transcript_from_payload(branches[0]),
                                      transcript_from_payload(branches[1])),
                            challenge=chal, hash_name=hash_name)
    com, resp = payload.get("com"), payload.get("resp")
    if type(resp) is not int:
        raise ValueError("response missing or of the wrong type")
    if type(com) not in (list, tuple) or not set(map(type, com)) <= {int}:
        raise ValueError("commitments must be a list of integers")
    return Transcript(commitment=tuple(com), challenge=chal, response=resp,
                      hash_name=hash_name)
