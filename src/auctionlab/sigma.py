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
cores (``statement_cores`` gives either kind's).  One prover,
``prove_sessions``, runs a list of sessions in order against one challenge
source, which decides the mode; ``prove`` is its one-statement form.  It
commits and responds for a plain statement itself.  ``ProverSession``, the
commit/respond state machine, serves only the relays that answer a
challenge learnt between their two moves (``attacks.forge_outcome_eqdl``,
``attacks.mitm_affine_pdl``).  One verifier, ``verify_transcript``, checks
every statement through the equations gens[i]^s = z[i] * targets[i]^c of
its transcript (``transcript_equations``): one at a time, or handed to an
``EquationBatch``, which in a wide group checks a whole round's equations as
one.  A plain transcript checked at once is checked in one pass over its
core's vectors, with no list of equations built.  A batch's weights are 64
bits hashed from its equations, and it screens its commitments for
membership in the order-q subgroup by 64 random-subset products, so a
prover who can try t sets of equations offline gets a non-member or a false
equation through with probability about t * 2^-63; callers check every
other element's membership first.  Narrower groups check each equation as
it arrives.  In a group with log tables (``GroupParams.logs``, p < 2^16)
an equation whose generator, target and commitment all have logarithms is
checked as s * log gen = log z + c * log target mod q, which holds exactly
when the powers agree; any other equation, such as one with a commitment
z + p, is checked by its powers.  The check is the same for every caller:
either mode, any number of verifiers.

Statements and transcripts are named tuples, so comparing and hashing one
runs in C.  In interactive mode every honest verifier runs its own session
with every prover, 8 184 sessions in a mid-group n=8, k=16 auction.
``protocol.check_round`` derives each statement's cores once per round,
and asks each prover once per verifier for the sessions of all its
statements.  A masking share's session, from the prover's draw to the
verifier's check by logarithms, costs about 3.8-4.0 us on CPython 3.11.7
(a shared 2-vCPU host), against about 5.1 us when each session was asked
for alone and checked by six powers; about a third of it is the prover's
two powers and the two draws.  As frozen dataclasses its records added about
2 us more.  A named tuple equals any tuple with the same items; the
records' kinds differ in length or in the types of their items, so no two
kinds built from one run's values compare equal, and none stands in for
another as a witness key.  ``EQDLStatement`` refuses mismatched vectors
when it is built (``_make`` and ``_replace`` do not check).

The hashed challenge's encoder (``serialize_statement``) keeps the encoded
p, q and g of the last eight groups it served, found by the group object's
identity rather than by hashing it, and, for a group with p < 2^16, a table
of every element's encoding.  Both hold the bytes encoding afresh gives, so
neither can change a challenge.

Interactive runs are deliberately unhardened: the verifier's challenge is
whatever the caller's challenge source supplies (an honest verifier's,
``verifier_source``, is uniform in 1..q-1), and an honest prover will
happily open fresh sessions for the same statement.  That is the behaviour
the relay attacks in :mod:`auctionlab.attacks` exploit.  The hashed variant
derives the challenge from a canonical serialization of the statement and
commitment, which removes the verifier from the loop entirely.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Iterable, NamedTuple

from .board import DICT_TYPES, LIST_TYPES
from .errors import AlreadyCommitted, NotCommitted, WitnessMismatch
from .groups import GroupParams

CHALLENGE_HASH = "sha256"
_challenge_hash = getattr(hashlib, CHALLENGE_HASH)

# A challenge source maps (statement, flat commitment tuple) to a scalar.
ChallengeSource = Callable[[object, tuple[int, ...]], int]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

class PDLStatement(NamedTuple):
    """Knowledge of x with g^x = v."""

    g: int
    v: int


class _EQDLFields(NamedTuple):
    gens: tuple[int, ...]
    targets: tuple[int, ...]


class EQDLStatement(_EQDLFields):
    """One exponent x with gens[i]^x = targets[i] for every i."""

    __slots__ = ()

    def __new__(cls, gens, targets):
        if len(gens) != len(targets) or not gens:
            raise ValueError("generator and target vectors must match and be non-empty")
        return tuple.__new__(cls, (gens, targets))


class BidValidityStatement(NamedTuple):
    """(alpha, beta) encrypts 1 or the marker under joint key y."""

    y: int
    g: int
    marker: int
    alpha: int
    beta: int


class SumValidityStatement(NamedTuple):
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

class Transcript(NamedTuple):
    """One completed three-move run: commitment(s), challenge, response."""

    commitment: tuple[int, ...]
    challenge: int
    response: int
    hash_name: str = CHALLENGE_HASH


class OrTranscript(NamedTuple):
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


# Groups with p below this keep a table of every element's encoding.
_ENCODING_TABLE_LIMIT = 1 << 16

# The headers of the last eight groups seen, by ``id(params)``: finding one
# is a dict read, not a call of the dataclass hash of p, q and g.  Each
# entry holds its ``params``, so no other object can take that id while
# the entry is kept; the oldest entry is dropped first.
_HEADER_CAP = 8
_headers: dict[int, tuple] = {}


def _group_header(params: GroupParams) -> tuple:
    """Build and keep the group's entry: ``params``, its encoded p, q and g,
    the length prefix every element carries, the element width, and for a
    group with p < 2^16 the table of every element's encoding: v -> prefix
    + v as width bytes, 0 <= v < p."""
    width = (params.p.bit_length() + 7) // 8
    prefix = width.to_bytes(4, "big")
    header = b"".join(prefix + int(v).to_bytes(width, "big")
                      for v in (params.p, params.q, params.g))
    table = ({v: prefix + v.to_bytes(width, "big") for v in range(params.p)}
             if params.p < _ENCODING_TABLE_LIMIT else None)
    if len(_headers) >= _HEADER_CAP:
        del _headers[next(iter(_headers))]
    entry = _headers[id(params)] = (params, header, prefix, width, table)
    return entry


def serialize_statement(params: GroupParams, stmt, commitments: Iterable[int]) -> bytes:
    """Domain tag, then p, q, g, statement elements and commitments, each as
    fixed-width big-endian bytes with a length prefix.  The p, q, g part is
    encoded once per group.  In a group with p < 2^16 each value is read
    from the group's table of encodings.  The table is a dict: -1 misses it
    where a list would wrap round to p - 1, and True or 1.0 read the entry
    of the int they equal, which is what ``int(v)`` encodes.  If any value
    misses, every value is encoded as ``int(v)``, as in a wider group, with
    the same bytes or error as there."""
    kind = type(stmt)
    tag = _DOMAIN_TAGS[kind]
    if kind is EQDLStatement:
        gens, targets = stmt
        values = (len(gens), *gens, *targets, *commitments)
    else:
        values = (*_statement_elements(stmt), *commitments)
    _, header, prefix, width, table = _headers.get(id(params)) or _group_header(params)
    if table is not None:
        try:
            return b"".join((tag, header, *map(table.__getitem__, values)))
        except (KeyError, TypeError):
            pass
    return b"".join([tag, header,
                     *[prefix + int(v).to_bytes(width, "big") for v in values]])


def fiat_shamir_challenge(params: GroupParams, stmt, commitments: Iterable[int]) -> int:
    data = serialize_statement(params, stmt, commitments)
    digest = _challenge_hash(data).digest()
    return int.from_bytes(digest, "big") % params.q


def fiat_shamir_source(params: GroupParams) -> ChallengeSource:
    return lambda stmt, com: fiat_shamir_challenge(params, stmt, com)


def verifier_source(params: GroupParams, rng: random.Random) -> ChallengeSource:
    """An interactive verifier: a uniformly random challenge in 1..q-1,
    statement ignored.  One source serves every session its verifier runs.
    A challenge of 0 accepts any response, so a 0 is drawn again."""
    randrange, q = rng.randrange, params.q

    def challenge(stmt, com):
        c = randrange(q)
        while not c:
            c = randrange(q)
        return c
    return challenge


# --------------------------------------------------------------------------
# Prover sessions and the one prover (every statement, either mode)
# --------------------------------------------------------------------------

class ProverSession:
    """One-shot commit/respond state machine for a knowledge, equality or
    sum statement, drawing its nonce from ``rng``, for a relay that must
    answer a challenge it learns between the two moves
    (``attacks.forge_outcome_eqdl``, ``attacks.mitm_affine_pdl``).  Reuse is
    refused; open a new session to prove again."""

    __slots__ = ("params", "stmt", "gens", "witness", "rng", "nonce", "phase")

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
        self.phase = "committed"
        self.nonce, com = _commit(self.params, self.gens, self.rng)
        return com

    def respond(self, challenge: int) -> int:
        if self.phase != "committed":
            raise NotCommitted("no live commitment to answer")
        self.phase = "responded"
        return (self.nonce + challenge * self.witness) % self.params.q


def _commit(params: GroupParams, gens, rng: random.Random):
    """A nonce drawn from ``rng`` and the commitment: every generator raised
    to it."""
    nonce = rng.randrange(params.q)
    exp = params.exp
    return nonce, tuple([exp(gen, nonce) for gen in gens])


def statement_cores(params: GroupParams, stmt) -> tuple:
    """The cores of the equations a transcript of ``stmt`` answers: a bid
    cell's two branch cores (``branch_statements``), any other statement's
    one core (``_core``)."""
    if isinstance(stmt, BidValidityStatement):
        return branch_statements(params, stmt)
    return (_core(params, stmt),)


def prove_sessions(params: GroupParams, sessions, rng: random.Random,
                   challenge_source: ChallengeSource) -> list:
    """One three-move run per entry of ``sessions``, in order, each run's
    challenge taken from ``challenge_source`` before the next run draws.  An
    entry is ``(statement, witness, cores)``, with ``cores`` from
    ``statement_cores`` and a bid cell's witness ``(r, is_marker)`` already
    checked (``check_witness``); a None entry gives None and draws nothing.
    A knowledge, equality or sum statement is committed to and answered
    here: a nonce from ``rng``, the core's generators raised to it, then
    nonce + c * witness mod q.  A bid cell gets an OR transcript."""
    # The loop commits without calling _commit, and builds each transcript
    # with tuple.__new__ rather than the named tuple's generated __new__:
    # each call was a Python frame, in every one of a round's sessions.
    q, exp, randrange, out = params.q, params.exp, rng.randrange, []
    for session in sessions:
        if session is None:
            out.append(None)
            continue
        stmt, witness, cores = session
        if isinstance(stmt, BidValidityStatement):
            out.append(_prove_bid_cell(params, stmt, cores, *witness, rng,
                                       challenge_source))
            continue
        nonce = randrange(q)
        com = tuple([exp(gen, nonce) for gen in cores[0].gens])
        c = challenge_source(stmt, com) % q
        out.append(tuple.__new__(Transcript, (com, c, (nonce + c * witness) % q,
                                              CHALLENGE_HASH)))
    return out


def prove(params: GroupParams, stmt, witness, rng: random.Random,
          challenge_source: ChallengeSource):
    """Full three-move run proving ``stmt`` (``prove_sessions``); the
    challenge source always sees ``stmt`` itself.  A knowledge, equality or
    sum statement takes the exponent of its core (for a sum, the randomiser
    sum); a bid cell takes ``(r, is_marker)`` and gets an OR transcript.  A
    bid cell's witness is checked first (``check_witness``)."""
    check_witness(params, stmt, witness)
    session = (stmt, witness, statement_cores(params, stmt))
    return prove_sessions(params, [session], rng, challenge_source)[0]


# --------------------------------------------------------------------------
# Bid cells (OR composition)
# --------------------------------------------------------------------------

def _simulate_eqdl(params: GroupParams, stmt: EQDLStatement,
                   rng: random.Random) -> Transcript:
    """Accepting transcript with no witness: pick challenge and response first,
    then solve for the commitment.  A target is raised to q - c, which is
    target^-c for a subgroup member, the only kind a verifier accepts."""
    c = rng.randrange(params.q)
    s = rng.randrange(params.q)
    com = tuple(
        params.exp(gen, s) * params.exp(target, params.q - c) % params.p
        for gen, target in zip(stmt.gens, stmt.targets)
    )
    return Transcript(commitment=com, challenge=c, response=s)


def check_witness(params: GroupParams, stmt, witness) -> None:
    """Raise WitnessMismatch unless a bid cell's witness ``(r, is_marker)``
    re-encrypts to the cell's ciphertext.  Other statements' witnesses are
    not checked: a wrong one gives a transcript that fails."""
    if isinstance(stmt, BidValidityStatement):
        r, is_marker = witness
        plaintext = stmt.marker if is_marker else 1
        expect_alpha = plaintext * params.exp(stmt.y, r) % params.p
        expect_beta = params.exp(stmt.g, r)
        if (expect_alpha, expect_beta) != (stmt.alpha, stmt.beta):
            raise WitnessMismatch("ciphertext does not open to the claimed plaintext")


def _prove_bid_cell(params: GroupParams, stmt: BidValidityStatement, cores,
                    r: int, is_marker: bool, rng: random.Random,
                    challenge_source: ChallengeSource) -> OrTranscript:
    """Prove the cell encrypts 1 or the marker without revealing which;
    ``cores`` are its two branch cores.

    The branch we do not hold a witness for is simulated with a pre-chosen
    sub-challenge; the outer challenge then pins the real branch's share.
    """
    real_idx = 1 if is_marker else 0
    simulated = _simulate_eqdl(params, cores[1 - real_idx], rng)
    nonce, real_com = _commit(params, cores[real_idx].gens, rng)

    if real_idx == 0:
        flat = real_com + simulated.commitment
    else:
        flat = simulated.commitment + real_com
    q = params.q
    c = challenge_source(stmt, flat) % q
    c_real = (c - simulated.challenge) % q
    real_tr = Transcript(commitment=real_com, challenge=c_real,
                         response=(nonce + c_real * r) % q)

    branches = (real_tr, simulated) if real_idx == 0 else (simulated, real_tr)
    return OrTranscript(branches=branches, challenge=c)


# --------------------------------------------------------------------------
# The one verifier: every statement as exponent equations
# --------------------------------------------------------------------------

# A proof's exponent equations come as (core, transcript) pairs: the pair
# stands for gens[i]^s = z[i] * targets[i]^c for every i of the core, with
# s, c and z from the transcript.  A batch weighs each equation by this many
# bytes of hash, and screens its commitments with one row per weight bit.
_WEIGHT_BYTES = 8
_ROWS = 8 * _WEIGHT_BYTES

# Subtracted from a weight's bit string read as bytes, it leaves one byte
# per bit, each 0 or 1.
_ASCII_ZEROS = int.from_bytes(b"0" * _ROWS, "big")


def _holds(params: GroupParams, core: EQDLStatement, tr) -> bool:
    """Whether gens[i]^s = z[i] * targets[i]^c holds for every i of
    ``core``, checked in order, stopping at the first that fails.  In a
    group with log tables (``GroupParams.logs``) an equation whose
    generator, target and commitment are int members, with s and c ints, is
    checked as s * log gen = log z + c * log target mod q, which holds
    exactly when the powers agree; every other equation is checked by its
    powers."""
    p, q = params.p, params.q
    s, c = tr.response, tr.challenge
    logs = params.logs if type(s) is int and type(c) is int else None
    for gen, target, z in zip(core.gens, core.targets, tr.commitment):
        if (logs is not None and type(gen) is type(target) is type(z) is int
                and 0 <= gen < p and 0 <= target < p and 0 <= z < p):
            log_gen, log_target, log_z = logs[gen], logs[target], logs[z]
            if log_gen is not None and log_target is not None and log_z is not None:
                if (s * log_gen - c * log_target - log_z) % q:
                    return False
                continue
        if params.exp(gen, s) != z * params.exp(target, c) % p:
            return False
    return True


def _all_hold(params: GroupParams, pairs) -> bool:
    """Whether every equation of ``pairs`` holds (``_holds``), checked in
    order, stopping at the first that fails."""
    return all(_holds(params, core, tr) for core, tr in pairs)


def transcript_equations(params: GroupParams, stmt, tr, cores=None) -> tuple | None:
    """The equations ``tr`` must satisfy to prove ``stmt``, as (core,
    transcript) pairs: a bid cell's two branch cores with their branches,
    every other statement's core with ``tr``.  ``cores`` are the statement's
    (``statement_cores``), derived here when not given.  None when the
    shape of ``tr`` (a plain transcript with one commitment per generator
    for each core), or a bid cell's challenge split, already refutes it."""
    if cores is None:
        cores = statement_cores(params, stmt)
    if isinstance(stmt, BidValidityStatement):
        if not isinstance(tr, OrTranscript):
            return None
        plain, marked = cores
        (b0, b1), q = tr.branches, params.q
        if ((b0.challenge + b1.challenge) % q != tr.challenge % q
                or not _fits(plain, b0) or not _fits(marked, b1)):
            return None
        return (plain, b0), (marked, b1)
    core = cores[0]
    return ((core, tr),) if _fits(core, tr) else None


def _fits(core: EQDLStatement, tr) -> bool:
    """Whether ``tr`` is a plain transcript with one commitment per
    generator of ``core``."""
    return isinstance(tr, Transcript) and len(tr.commitment) == len(core.gens)


def verify_transcript(params: GroupParams, stmt, tr, require_hashed: bool,
                      batch: "EquationBatch | None" = None, key=None,
                      cores: tuple | None = None) -> bool:
    """Check a transcript: its equations (``transcript_equations``) and then,
    under hashed challenges, that the challenge is exactly the canonical
    hash of statement and commitment.  The equations are checked now
    (``_holds``: by logarithms where the group has them, else by powers),
    in order, stopping at the first that fails, unless a batch is given in
    a wide group: then they go to ``batch.add(key, ...)`` for later.
    ``cores`` are the statement's (``statement_cores``), derived here when
    not given.  A plain statement's transcript checked now is checked
    straight off its core, with no equation list built."""
    if cores is None:
        cores = statement_cores(params, stmt)
    batched = batch is not None and params.wide
    if batched or len(cores) > 1:
        equations = transcript_equations(params, stmt, tr, cores)
        if equations is None:
            return False
        if batched:
            batch.add(key, equations)
        elif not _all_hold(params, equations):
            return False
    elif not (_fits(cores[0], tr) and _holds(params, cores[0], tr)):
        return False
    if not require_hashed:
        return True
    return (tr.challenge % params.q == fiat_shamir_challenge(params, stmt, tr.commitment)
            and tr.hash_name == CHALLENGE_HASH)


class EquationBatch:
    """The exponent equations of one round's proof checks.

    Only a wide group (``GroupParams.wide``) batches: ``verify_transcript``
    checks a narrow group's equations as they arrive, where a power is cheap
    (below p = 2^16 a table read) and 64-bit weights would be no stronger
    than q.  ``add`` keeps equations, and ``first_failure`` settles them
    all at once.  Each equation gets a 64-bit weight w from a SHA-256 hash
    of the equations, and S_r is the product of the commitments whose w has
    bit r set (``_subset_rows``).  The 64 rows do two jobs:

    * the membership screen: every S_r must lie in the order-q subgroup,
      which a set holding a non-member, posted once or many times, passes
      with probability 2^-64 (a batch of at most 64 commitments tests each
      one instead, for no more symbols);
    * the small-exponent test (Bellare-Garay-Rabin, "Fast Batch
      Verification for Modular Exponentiation and Digital Signatures",
      EUROCRYPT '98), prod gen^(sum w*s) = prod com^w * prod
      target^(sum w*c), whose prod com^w is prod S_r^(2^r) by Horner's
      rule (``_horner``).  Each distinct generator is raised through its
      fixed-base table, and the targets together by ``multi_exp``.

    Over members a false equation passes the test with probability at most
    2^-64; over non-members the test accepts false equations (Boyd-
    Pavlovski, "Attacking and Repairing Batch Verification Schemes",
    ASIACRYPT 2000), hence the screen.  The weights are public, so a prover
    who picks its commitments and equations (a hashed proof, or the last
    response of an interactive round) can grind: after t tries a non-member
    or a false equation gets through with probability about t * 2^-63,
    against about t / q for checks one at a time.  Callers check the
    generators' and targets' membership, and keep every commitment in
    0 < z < p and every s and c in 0 <= v < q, before they add
    (``protocol.check_proof`` does).  When the screen or the test fails,
    the checks are walked in the order they were added, each one's
    commitments tested and then its equations, to find the first that
    fails."""

    def __init__(self, params: GroupParams):
        self.params = params
        self.pending: list[tuple[object, tuple]] = []

    def add(self, key, equations: tuple) -> None:
        """Keep the equations (``transcript_equations``) of the check named
        ``key``."""
        self.pending.append((key, equations))

    def first_failure(self):
        """Check every kept equation and forget them all.  Returns the key
        of the first check with a commitment outside the order-q subgroup
        or a false equation, or None.  They are screened and tested as one
        first, and walked one at a time only when that fails."""
        pending, self.pending = self.pending, []
        if not pending or self._holds_together(pending):
            return None
        params = self.params
        for key, equations in pending:
            if not (params.are_elements(z for _, tr in equations for z in tr.commitment)
                    and _all_hold(params, equations)):
                return key
        return None

    def _holds_together(self, pending) -> bool:
        """The membership screen, then the small-exponent test, over every
        pending equation."""
        params = self.params
        p, q = params.p, params.q
        equations = [(gen, target, com, tr.response, tr.challenge)
                     for _, pairs in pending for core, tr in pairs
                     for gen, target, com in zip(core.gens, core.targets, tr.commitment)]
        width = (p.bit_length() + 7) // 8
        seed = hashlib.sha256(b"".join(
            v.to_bytes(width, "big") for eq in equations for v in eq)).digest()
        size = _WEIGHT_BYTES
        stream = b"".join(
            hashlib.sha256(seed + i.to_bytes(4, "big")).digest()
            for i in range(-(-len(equations) * size // 32)))
        weights = [int.from_bytes(stream[i:i + size], "big")
                   for i in range(0, len(equations) * size, size)]
        coms = [com for _, _, com, _, _ in equations]
        rows = _subset_rows(p, coms, weights)
        if not self._screened(coms, rows):
            return False
        gens, targets = {}, {}
        for (gen, target, _, s, c), w in zip(equations, weights):
            gens[gen] = gens.get(gen, 0) + w * s
            targets[target] = targets.get(target, 0) + w * c
        lhs = 1
        for gen, e in gens.items():
            lhs = lhs * params.exp(gen, e % q) % p
        rhs = (params.multi_exp(targets, [e % q for e in targets.values()])
               * _horner(p, rows) % p)
        return lhs == rhs

    def _screened(self, coms: list[int], rows: list[int]) -> bool:
        """Whether the commitments pass the membership screen: each one when
        there are at most 64, else the 64 rows."""
        return self.params.are_elements(coms if len(coms) <= _ROWS else rows)


def _subset_rows(p: int, coms: list[int], weights: list[int]) -> list[int]:
    """The 64 row products, top weight bit first: entry t is the product
    mod p of the commitments whose weight (below 2^64) has bit 63 - t set.
    Four commitments at a time: the 16 products of their subsets are formed
    once, subset d holding commitment j when bit j of d is set, and each
    row multiplies in the subset its four weight bits name.  Those bits
    come from the weights' bit strings: read as big-endian bytes, less
    ASCII zeros, shifted by j and summed, byte t holds the subset of row
    t."""
    rows = [1] * _ROWS
    for i in range(0, len(coms), 4):
        subsets = [1]
        for com in coms[i:i + 4]:
            subsets += [s * com % p for s in subsets]
        digits = 0
        for j, w in enumerate(weights[i:i + 4]):
            bits = int.from_bytes(format(w, "064b").encode(), "big") - _ASCII_ZEROS
            digits += bits << j
        rows = [row * subsets[d] % p
                for row, d in zip(rows, digits.to_bytes(_ROWS, "big"))]
    return rows


def _horner(p: int, rows: list[int]) -> int:
    """prod S_r^(2^r) mod p for rows given top bit first (``_subset_rows``),
    which is the product of every commitment raised to its weight."""
    acc = 1
    for row in rows:
        acc = acc * acc * row % p
    return acc


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
    if type(payload) not in DICT_TYPES:
        raise ValueError("proof is not a mapping")
    chal, hash_name = payload.get("chal"), payload.get("hash")
    if type(chal) is not int or type(hash_name) is not str:
        raise ValueError("challenge or hash name missing or of the wrong type")
    if "or" in payload:
        branches = payload["or"]
        if type(branches) not in LIST_TYPES or len(branches) != 2:
            raise ValueError("an OR proof needs two branches")
        return OrTranscript(branches=(transcript_from_payload(branches[0]),
                                      transcript_from_payload(branches[1])),
                            challenge=chal, hash_name=hash_name)
    com, resp = payload.get("com"), payload.get("resp")
    if type(resp) is not int:
        raise ValueError("response missing or of the wrong type")
    if type(com) not in LIST_TYPES or not set(map(type, com)) <= {int}:
        raise ValueError("commitments must be a list of integers")
    return Transcript(commitment=tuple(com), challenge=chal, response=resp,
                      hash_name=hash_name)
