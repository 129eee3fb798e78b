"""The five-round fully private first-price auction.

Rounds, all driven through the bulletin board:

1. keygen   - every bidder posts a public key share with a knowledge proof,
              and privately draws the outcome exponents and bid randomisers
              it will spend later.
2. bid      - every bidder posts k ciphertexts, one per price: the marker at
              the price it bids, 1 elsewhere, with validity and sum proofs.
3. outcome  - every bidder raises the published cell bases to its private
              outcome exponents and posts the resulting masking shares with
              equality proofs.  The n x k grid of cell bases is built from
              the posted bids in O(nk) products, once, when the bid round
              closes (``AuctionRun.bases``).
4. decrypt  - every bidder sends its decryption share for every cell to the
              seller with a proof; the seller withholds publication until
              all have arrived, then posts each bidder's shares for all rows
              other than the bidder's own.
5. result   - the seller divides masked products by decryption products; a
              cell that lands on 1 names the winner and the price.

Each round is read off the board once, when it closes: its verify step
checks each post against its kind's entry in ``SCHEMAS``, the one table of
post shapes (``check_payload``), builds each statement once, and keeps what
it read on the run for every later reader, so a post added to a closed round
changes nothing.  Each post's statements are built in one place: a bid's by
``bid_statements``, a masking share's when its round closes (kept in
``AuctionRun.outcome_statements``), a decryption's by ``decrypt_statement``.
Honest agents verify every proof they see (``check_round``).  In
hashed-proof mode they check static transcripts, each once, and every
verifier shares the verdict.  In interactive mode each verifier builds the
statements from the board and asks each poster's agent, once, to prove its
statements in fresh commit/challenge/respond sessions; an agent proves only
statements it posted itself.  Attack code must get past these checks, never
around them.
"""

from __future__ import annotations

import functools
import itertools
import random
import weakref
from collections import namedtuple
from dataclasses import dataclass, field

from . import defenses, elgamal, sigma
from .board import DICT_TYPES, LIST_TYPES, BulletinBoard, Post
from .errors import (
    AuthRejected,
    MissingShares,
    ModeMismatch,
    PriceOutOfRange,
    ProofRejected,
    RestartRequired,
)
from .groups import SMALL_GROUP, GroupParams
from .recovery import outcome_map

ROUND_KEYGEN = "keygen"
ROUND_BID = "bid"
ROUND_OUTCOME = "outcome"
ROUND_DECRYPT = "decrypt"
ROUND_RESULT = "result"

SELLER = "seller"
MAX_ATTEMPTS = 200            # cap on auctions per with_restarts call
NOISE_CANCELLED = "noise cancellation detected"   # a detection, not a chance collapse
_INTS = frozenset((int,))


def bidder_name(index: int) -> str:
    """1-based bidder index to board author name."""
    return f"bidder-{index}"


@dataclass(frozen=True)
class AuctionConfig:
    """Static run parameters: group, sizes, price marker, defense flags."""

    n: int
    k: int
    params: GroupParams = SMALL_GROUP
    marker: int = 4
    flags: defenses.DefenseFlags = field(default_factory=defenses.DefenseFlags)
    markers_per_bidder: tuple[int, ...] | None = None

    @property
    def interactive(self) -> bool:
        return not self.flags.ni_proofs

    def marker_for(self, index: int) -> int:
        """Price marker for a 1-based bidder index."""
        if self.markers_per_bidder is not None:
            return self.markers_per_bidder[index - 1]
        return self.marker

    def validate(self) -> None:
        if self.n < 1 or self.k < 1:
            raise ValueError("need n >= 1 bidders and k >= 1 prices")
        if self.n >= self.params.q:
            raise ValueError(f"bidder count {self.n} must stay below the "
                             f"subgroup order {self.params.q}")
        markers = self.markers_per_bidder or (self.marker,)
        if self.markers_per_bidder is not None and len(markers) != self.n:
            raise ValueError("need one marker per bidder")
        for m in markers:
            if m == 1 or not self.params.is_element(m):
                raise ValueError(f"marker {m} must be a subgroup element other than 1")


def encode_bid(price: int, k: int) -> list[int]:
    """One-hot 0/1 vector of length k with the 1 at the chosen price."""
    if not 1 <= price <= k:
        raise PriceOutOfRange(f"price {price} outside 1..{k}")
    out = [0] * k
    out[price - 1] = 1
    return out


def bid_statements(params: GroupParams, y: int, marker: int, alphas, betas):
    """A bid's statements under joint key ``y``: one per price that its
    ciphertext encrypts 1 or ``marker``, and one that the vector encrypts
    exactly one marker."""
    cells = [sigma.BidValidityStatement(y=y, g=params.g, marker=marker,
                                        alpha=alpha, beta=beta)
             for alpha, beta in zip(alphas, betas)]
    return cells, sigma.SumValidityStatement(y=y, g=params.g, marker=marker,
                                             alphas=tuple(alphas), betas=tuple(betas))


def compute_outcome_bases(params: GroupParams, alphas, betas):
    """Every cell's base pair, as an n x k grid (0-based) of
    ``(alpha_base, beta_base)``.

    Cell (i, j) takes the product of all bids at higher prices, bidder i's
    bids at lower prices, and earlier bidders' bids at price j, over the
    alpha and beta components separately: ``recovery.outcome_map`` under
    the product mod p, O(nk) products for all n*k cells."""
    p = params.p

    def product(a, b):
        return a * b % p

    return [list(zip(row_a, row_b)) for row_a, row_b in
            zip(outcome_map(alphas, product, 1), outcome_map(betas, product, 1))]


def cell_products(params: GroupParams, matrices):
    """Cell-wise product of a list of n x k matrices: the Γ-products of the
    bidders' masking shares γ, or the Δ-products of their shares δ."""
    p = params.p
    out = [[1] * len(row) for row in matrices[0]]
    for matrix in matrices:
        for out_row, row in zip(out, matrix):
            for j, value in enumerate(row):
                out_row[j] = out_row[j] * value % p
    return out


def decrypt_statement(params: GroupParams, delta_products, phi,
                      y_share: int | None = None) -> sigma.EQDLStatement:
    """One exponent raises every cell's Δ-product to its decryption share φ.
    Under the key-consistency defense the keygen share y = g^x is bound in
    front, so decrypting with any exponent other than the key share fails."""
    gens = [params.g] if y_share is not None else []
    targets = [y_share] if y_share is not None else []
    for delta_row, phi_row in zip(delta_products, phi):
        gens.extend(delta_row)
        targets.extend(phi_row)
    return sigma.EQDLStatement(gens=tuple(gens), targets=tuple(targets))


def check_elements(params: GroupParams, author: str, round_name: str,
                   what: str, *rows) -> None:
    """Refuse posted group elements that are not integers in 0 < v < p, or
    not in the order-q subgroup, before any proof or challenge encoding sees
    them.  Proof checks are batched over members only (``sigma.EquationBatch``),
    and a non-member such as p - v can pass a proof about v when the
    challenge is even."""
    p = params.p
    values = [v for row in rows for v in row]
    if not all(type(v) is int and 0 < v < p for v in values):
        raise ProofRejected(author, round_name,
                            f"malformed {what}: element outside 0 < v < p")
    if not params.are_elements(values):
        raise ProofRejected(author, round_name,
                            f"malformed {what}: element outside the order-q subgroup")


# Field shapes, for the run's n bidders and k prices.  An optional field's
# shape is not checked when it holds None, which stands for "none posted".
INDEX, ROW, GRID = "index in 1..n", "row of k", "n x k grid"
CELLS, PER_CELL, ANY = "fix cells", "one entry per fix cell", "anything"

# A post kind's fields, in check order, each with its shape, whether it
# holds group elements and whether it is optional.  Refusals name the post
# as ``what``.  A ``required`` payload must hold every field ("no y"); any
# other must be a mapping, and a field it lacks reads as None.
Field = namedtuple("Field", "name shape elements optional", defaults=(False, False))
Schema = namedtuple("Schema", "what fields required", defaults=(False,))

# Every kind of payload an honest party posts or sends, apart from the
# seller's result; a bidder sends its "decrypt-shares" to the seller.
SCHEMAS = {
    "keyshare": Schema("key share", (
        Field("y", ANY, elements=True), Field("proof", ANY)), required=True),
    "bid": Schema("bid", (
        Field("bidder", INDEX), Field("alphas", ROW, elements=True),
        Field("betas", ROW, elements=True), Field("proofs", ROW, optional=True),
        Field("sum_proof", ANY)), required=True),
    "outcome": Schema("outcome", (
        Field("gamma", GRID, elements=True), Field("delta", GRID, elements=True),
        Field("proofs", GRID, optional=True))),
    "outcome-fix": Schema("outcome", (
        Field("cells", CELLS), Field("gamma", PER_CELL, elements=True),
        Field("delta", PER_CELL, elements=True),
        Field("proofs", PER_CELL, optional=True))),
    "decrypt-shares": Schema("decrypt shares", (
        Field("phi", GRID, elements=True), Field("proof", ANY))),
    "decrypt-publish": Schema("publication", (
        Field("bidder", INDEX), Field("phi", GRID, elements=True))),
}


def _is_list(value, length: int) -> bool:
    return type(value) in LIST_TYPES and len(value) == length


def _shape_problem(schema: Schema, payload, n: int, k: int) -> str | None:
    """What makes ``payload`` unfit for ``schema``, or None."""
    if schema.required:
        for f in schema.fields:
            if type(payload) not in DICT_TYPES or f.name not in payload:
                return f"no {f.name}"
    elif type(payload) not in DICT_TYPES:
        return "payload is not a mapping"
    cells = ()
    for f in schema.fields:
        value = payload.get(f.name)
        if f.optional and value is None:
            continue
        if f.shape in (ROW, CELLS) and type(value) not in LIST_TYPES:
            return f"{f.name} is not a list"
        if f.shape == INDEX and (type(value) is not int or not 1 <= value <= n):
            return f"{f.name} {value!r} outside 1..{n}"
        if f.shape == ROW and len(value) != k:
            return f"{len(value)} {f.name} for {k} prices"
        if f.shape == GRID and not (_is_list(value, n)
                                    and all(_is_list(row, k) for row in value)):
            return f"{f.name} is not a {n} x {k} grid"
        if f.shape == CELLS:
            cells = value
            for cell in cells:
                if not (_is_list(cell, 2) and all(type(c) is int for c in cell)
                        and 1 <= cell[0] <= n and 1 <= cell[1] <= k):
                    return f"fix cell {cell!r} outside 1..{n} x 1..{k}"
        if f.shape == PER_CELL and not _is_list(value, len(cells)):
            return f"fix {f.name} does not hold one entry per cell"
    return None


def check_payload(config: AuctionConfig, kind: str, author: str, round_name: str,
                  payload, row: int | None = None) -> None:
    """Refuse a ``kind`` payload that does not fit ``SCHEMAS[kind]`` for the
    run's n and k, then hand its element fields to ``check_elements`` in one
    call: only grid row ``row`` (0-based, None where withheld) if given."""
    schema = SCHEMAS[kind]
    problem = _shape_problem(schema, payload, config.n, config.k)
    if problem is not None:
        raise ProofRejected(author, round_name, f"malformed {schema.what}: {problem}")
    rows = []
    for f in schema.fields:
        if f.elements and f.shape == GRID:
            grid = payload[f.name]
            rows.extend(grid if row is None else [[v for v in grid[row] if v is not None]])
        elif f.elements:
            rows.append((payload[f.name],) if f.shape == ANY else payload[f.name])
    check_elements(config.params, author, round_name, schema.what, *rows)


def _canonical_scalars(tr, q: int) -> bool:
    """Every challenge and response of ``tr``, OR branches included, is an
    int in 0 <= v < q."""
    if type(tr) is sigma.OrTranscript:
        return (type(tr.challenge) is int and 0 <= tr.challenge < q
                and _canonical_scalars(tr.branches[0], q)
                and _canonical_scalars(tr.branches[1], q))
    return (type(tr.challenge) is int and type(tr.response) is int
            and 0 <= tr.challenge < q and 0 <= tr.response < q)


def _record_problem(tr) -> str | None:
    """Why ``tr``, which an agent gave for an interactive session, is not a
    transcript record with int commitments, or None: a plain transcript
    with a tuple of ints, or an OR transcript of two of them."""
    if type(tr) is sigma.OrTranscript:
        branches = tr.branches
        if type(branches) is not tuple or len(branches) != 2:
            return "an OR proof needs two branches"
        return _plain_problem(branches[0]) or _plain_problem(branches[1])
    return _plain_problem(tr)


def _plain_problem(tr) -> str | None:
    """``_record_problem`` for a plain transcript."""
    if type(tr) is not sigma.Transcript:
        return f"{type(tr).__name__} is not a transcript"
    com = tr.commitment
    if type(com) is not tuple or not set(map(type, com)) <= _INTS:
        return "commitments must be a tuple of integers"
    return None


def _check_commitments(params: GroupParams, author: str, round_name: str,
                       where: str, commitment: tuple) -> None:
    """Refuse a proof with a commitment outside the order-q subgroup,
    naming 0 < z < p when one lies outside that."""
    if not params.are_elements(commitment):
        p = params.p
        outside = ("the order-q subgroup" if all(0 < z < p for z in commitment)
                   else "0 < z < p")
        raise ProofRejected(author, round_name,
                            f"malformed proof{where}: commitment outside {outside}")


def check_proof(config: AuctionConfig, author: str, round_name: str, stmt, proof,
                failure: str, where: str, batch: sigma.EquationBatch,
                cores: tuple | None = None) -> None:
    """Check ``author``'s proof of ``stmt`` in the run's proof mode, or
    raise ProofRejected naming the author, the round and ``where``.

    Interactive: ``proof`` is the transcript the author's agent gave in a
    session for ``stmt`` as the verifier built it, against the verifier's
    challenges (``check_round`` runs the sessions), or None when the agent
    had no proof: it never posted ``stmt``.  A transcript that is not a
    record of ints (``_record_problem``) is malformed, as an unparseable
    payload is.  Hashed: ``proof`` is the posted payload, parsed here, and
    the challenge must be the canonical hash; a None payload is a missing
    proof.  In both modes every commitment must lie in the order-q
    subgroup, and every challenge and response (OR branches included) be
    an int in 0 <= v < q, so that no statement has a second accepting
    transcript made by adding q, no verifier raises a base to an oversized
    response, and the batch's small-exponent test sees members only.
    ``cores`` are the statement's (``sigma.statement_cores``), derived once
    for every check of ``stmt``, or here when None.  Every failure found
    here is raised at once, and in a narrow group commitments are tested
    as they arrive and equations checked by ``sigma.verify_transcript``.
    In a wide group only 0 < z < p is tested on arrival: the proof's
    exponent equations go to ``batch``, which screens the round's
    commitments for membership and checks the equations when the round's
    checks are done.  Before any other failure of a proof is raised, its
    own commitments are tested one by one, so the refusal is the one that
    testing them on arrival gives."""
    params, interactive = config.params, config.interactive
    if interactive:
        tr = proof
        if tr is None:
            raise ProofRejected(author, round_name, failure + where)
        problem = _record_problem(tr)
        if problem is not None:
            raise ProofRejected(author, round_name, f"malformed proof{where}: {problem}")
    elif proof is None:
        raise ProofRejected(author, round_name, f"missing proof{where}")
    else:
        try:
            tr = sigma.transcript_from_payload(proof)
        except ValueError as exc:
            raise ProofRejected(author, round_name,
                                f"malformed proof{where}: {exc}") from exc
    com, p = tr.commitment, params.p
    if not (all(0 < z < p for z in com) if params.wide else params.are_elements(com)):
        _check_commitments(params, author, round_name, where, com)
    if not _canonical_scalars(tr, params.q):
        detail = f"malformed proof{where}: response or challenge outside 0 <= v < q"
    elif sigma.verify_transcript(params, stmt, tr, not interactive, batch,
                                 (author, failure, where, com), cores):
        return
    else:
        detail = failure + where
    _check_commitments(params, author, round_name, where, com)
    raise ProofRejected(author, round_name, detail)


def check_round(run: "AuctionRun", round_name: str, verifiers, entries) -> None:
    """Have each verifier (a party with a ``name`` and an ``rng``) check
    every entry another author posted, verifier by verifier, in entry order.
    An entry is ``(author, statement, posted proof, failure, where)`` as
    ``check_proof`` takes them.  Every proof is checked alike, whatever the
    mode and the number of verifiers (``sigma.verify_transcript``).

    Interactive (``_session_checks``): each entry's statement cores are
    derived once per round (``sigma.statement_cores``), not once per
    session.  Each verifier asks each author's agent in ``run`` once for the
    sessions of that author's consecutive entries (``BidderAgent.prove``),
    with the same list for every verifier, and checks the transcripts in
    entry order.  The sessions run in entry order against the verifier's
    one challenge source for the round (``sigma.verifier_source`` over its
    ``rng``), so every rng sees the draws a session at a time would make; a
    name with no agent behind it has no proof, and a reply that is not a
    list is malformed.  Hashed (``_shared_checks``): a proof's verdict
    depends on its statement and transcript alone, so the first verifier
    that reaches it checks it and every later one shares that verdict.

    In a wide group every proof's exponent equations go to one batch for
    the round (``sigma.EquationBatch``), which also screens their
    commitments for membership; a narrow group checks both as they arrive.
    The failure raised is the one checking each proof on arrival would
    raise first: before a failure found during the checks is raised, the
    batch is settled, and after the last check it is settled again.  A
    batch that fails its screen or its test walks its proofs one at a
    time, in the order they arrived."""
    config = run.config
    batch = sigma.EquationBatch(config.params)
    checks = (_session_checks(run, round_name, verifiers, entries) if config.interactive
              else _shared_checks(verifiers, entries))
    try:
        for author, stmt, proof, failure, where, cores in checks:
            check_proof(config, author, round_name, stmt, proof, failure, where,
                        batch, cores)
    except Exception:
        # An earlier proof's non-member or false equation is raised first.
        _raise_first_failure(batch, round_name)
        raise
    _raise_first_failure(batch, round_name)


def _shared_checks(verifiers, entries):
    """``check_round``'s hashed checks: each entry once, by the first
    verifier that did not post it, its cores derived in the check."""
    pending = entries
    for verifier in verifiers:
        left = []
        for entry in pending:
            if entry[0] == verifier.name:
                left.append(entry)            # nobody checks their own proof
            else:
                yield (*entry, None)
        pending = left


def _session_checks(run: "AuctionRun", round_name: str, verifiers, entries):
    """``check_round``'s interactive checks, verifier by verifier: each
    author's consecutive entries with their cores, derived once
    (``sigma.statement_cores``), and the transcripts of the sessions its
    agent ran for them."""
    params, agents = run.config.params, run.agents
    asks = []                                 # (author, statements, (entry, cores))
    for author, group in itertools.groupby(entries, key=lambda entry: entry[0]):
        checks = [(entry, sigma.statement_cores(params, entry[1])) for entry in group]
        asks.append((author, [entry[1] for entry, _ in checks], checks))
    for verifier in verifiers:
        source = sigma.verifier_source(params, verifier.rng)
        for author, stmts, checks in asks:
            if author == verifier.name:
                continue                      # nobody checks their own proof
            agent = agents.get(author)
            first_where = checks[0][0][4]
            if agent is None:
                raise ProofRejected(author, round_name, f"missing proof{first_where}")
            reply = agent.prove(stmts, source)
            if type(reply) is not list:
                raise ProofRejected(author, round_name, f"malformed proof{first_where}: "
                                    f"{type(reply).__name__} reply, not a list")
            # A prover that gives fewer transcripts has no proof for the rest.
            transcripts = itertools.chain(reply, itertools.repeat(None))
            for ((_, stmt, _, failure, where), cores), tr in zip(checks, transcripts):
                yield author, stmt, tr, failure, where, cores


def _raise_first_failure(batch: sigma.EquationBatch, round_name: str) -> None:
    """Raise the ProofRejected of the first check in ``batch`` with a
    commitment outside the order-q subgroup or a false equation, if there
    is one: its commitments' refusal when they are what fails."""
    key = batch.first_failure()
    if key is not None:
        author, failure, where, commitment = key
        _check_commitments(batch.params, author, round_name, where, commitment)
        raise ProofRejected(author, round_name, failure + where)


# --------------------------------------------------------------------------
# Board readers
# --------------------------------------------------------------------------

def _latest_payloads(board: BulletinBoard, round_name: str, kind: str, n: int) -> dict:
    """Every author's latest ``kind`` payload in the round, by author, as
    posted.  Every bidder must have one."""
    out = {name: post.payload
           for name, post in board.latest_by_author(round_name, kind).items()}
    for i in range(1, n + 1):
        if bidder_name(i) not in out:
            raise MissingShares(f"no {SCHEMAS[kind].what} from {bidder_name(i)}")
    return out


def collect_keyshares(board: BulletinBoard, n: int) -> dict:
    """Every author's latest key share payload."""
    return _latest_payloads(board, ROUND_KEYGEN, "keyshare", n)


def collect_bids(board: BulletinBoard, n: int) -> dict:
    """Every author's latest bid payload."""
    return _latest_payloads(board, ROUND_BID, "bid", n)


def collect_outcome(board: BulletinBoard, n: int, k: int):
    """Masking share matrices γ and δ per bidder, and the grid of hashed
    proofs behind them (None where none was posted), with later fix posts
    merged in.  The posts must fit their schemas (``AuctionRun._read_outcome``
    checks each once)."""
    grids: dict[str, tuple] = {}
    for post in board.select(round=ROUND_OUTCOME):
        payload = post.payload
        if post.kind == "outcome":
            gamma = [list(row) for row in payload["gamma"]]
            proofs = payload.get("proofs")
            grids[post.author] = (
                gamma, [list(row) for row in payload["delta"]],
                [list(row) for row in proofs] if proofs is not None
                else [[None] * len(row) for row in gamma])
        elif post.kind == "outcome-fix":
            if post.author not in grids:
                raise MissingShares(f"fix before outcome from {post.author}")
            g, d, pr = grids[post.author]
            cells = payload["cells"]
            for (ci, cj), gv, dv, proof in zip(
                    cells, payload["gamma"], payload["delta"],
                    payload.get("proofs") or [None] * len(cells)):
                g[ci - 1][cj - 1] = gv
                d[ci - 1][cj - 1] = dv
                pr[ci - 1][cj - 1] = proof
    for i in range(1, n + 1):
        if bidder_name(i) not in grids:
            raise MissingShares(f"no outcome shares from {bidder_name(i)}")
    gammas, deltas, proofs = zip(*(grids[bidder_name(i)] for i in range(1, n + 1)))
    return list(gammas), list(deltas), list(proofs)


# --------------------------------------------------------------------------
# Agents
# --------------------------------------------------------------------------

class Party:
    """A bidder or the seller: posts to the run's board under its name, with
    a tag from its key when the authentication defense is on.  It holds its
    run weakly, so a finished run is freed without the cyclic collector."""

    def __init__(self, run: "AuctionRun", name: str, rng: random.Random):
        self.run = weakref.proxy(run)
        self.name = name
        self.rng = rng
        self.config = run.config
        self.params = run.config.params
        self.auth_key: bytes | None = None

    def _post(self, round_name: str, kind: str, payload: dict) -> Post:
        sign = None
        if self.config.flags.authenticate:
            sign = functools.partial(defenses.authenticate_post, self.auth_key,
                                     round_name, self.name, kind)
        return self.run.board.append(round_name, self.name, kind, payload, sign=sign)


class BidderAgent(Party):
    """An honest bidder.  Holds the private key share, the outcome
    exponents and the bid randomisers.  In interactive mode it keeps the
    witness of every statement it posts (``witnesses``) and proves a
    statement on request if it posted that statement itself, and no
    other."""

    honest = True

    def __init__(self, run: "AuctionRun", index: int, rng: random.Random):
        super().__init__(run, bidder_name(index), rng)
        self.index = index                     # 1-based
        self.share: elgamal.KeyShare | None = None
        self.m: list[list[int]] | None = None  # outcome exponents, n x k
        self.r: list[int] | None = None        # bid randomisers, length k
        self.phi: list[list[int]] | None = None
        self.witnesses: dict = {}              # posted statement -> witness
        self._asked: list = []                 # the last statements asked for
        self._sessions: list = []              # and their prove_sessions entries

    def _posted_proof(self, stmt, witness) -> dict | None:
        """The hashed transcript posted with ``stmt``.  In interactive mode
        nothing is posted: ``witness`` is checked once, here
        (``sigma.check_witness``), and kept for the sessions that prove
        ``stmt`` on request, and the result is None."""
        if self.config.interactive:
            sigma.check_witness(self.params, stmt, witness)
            self.witnesses[stmt] = witness
            return None
        tr = sigma.prove(self.params, stmt, witness, self.rng,
                         sigma.fiat_shamir_source(self.params))
        return sigma.transcript_to_payload(tr)

    def prove(self, stmts, challenge_source: sigma.ChallengeSource) -> list:
        """One interactive session per statement of ``stmts``, in order,
        each against ``challenge_source`` (``sigma.prove_sessions``): a
        transcript from the witness checked when the statement was posted,
        or None for a statement this bidder never posted.  The witnesses are
        looked up, and the statements' cores derived, once per list: every
        verifier of a round asks with an equal list, and reuses the sessions
        the first one's request set up.  ``witnesses`` is empty under hashed
        proofs, so the mode is tested only on a miss."""
        if stmts != self._asked:
            params, sessions = self.params, []
            for stmt in stmts:
                witness = self.witnesses.get(stmt)
                if witness is None:
                    if not self.config.interactive:
                        raise ModeMismatch("no interactive sessions under hashed proofs")
                    sessions.append(None)
                else:
                    sessions.append((stmt, witness, sigma.statement_cores(params, stmt)))
            self._asked, self._sessions = list(stmts), sessions
        return sigma.prove_sessions(self.params, self._sessions, self.rng,
                                    challenge_source)

    # -- posting ----------------------------------------------------------

    def keygen(self) -> Post:
        """Draw the key share plus all later private randomness, then post
        the public share (with a knowledge proof in hashed mode)."""
        params, q = self.params, self.params.q
        self.share = elgamal.gen_keyshare(params, self.rng)
        n, k = self.config.n, self.config.k
        self.m = [[self.rng.randrange(1, q) for _ in range(k)] for _ in range(n)]
        self.r = [self.rng.randrange(q) for _ in range(k)]
        stmt = sigma.PDLStatement(g=params.g, v=self.share.y)
        payload = {"bidder": self.index, "y": self.share.y,
                   "proof": self._posted_proof(stmt, self.share.x)}
        return self._post(ROUND_KEYGEN, "keyshare", payload)

    def submit_bid(self, price: int) -> Post:
        params, y = self.params, self.run.joint_y
        marker = self.config.marker_for(self.index)
        bits = encode_bid(price, self.config.k)
        cts = [elgamal.encrypt(params, marker if bit else 1, y, r)
               for bit, r in zip(bits, self.r)]
        alphas, betas = [ct.alpha for ct in cts], [ct.beta for ct in cts]
        cells, total = bid_statements(params, y, marker, alphas, betas)
        proofs = [self._posted_proof(stmt, (r, bool(bit)))
                  for stmt, r, bit in zip(cells, self.r, bits)]
        payload = {"bidder": self.index, "alphas": alphas, "betas": betas,
                   "proofs": None if self.config.interactive else proofs,
                   "sum_proof": self._posted_proof(total, sum(self.r) % params.q)}
        return self._post(ROUND_BID, "bid", payload)

    # -- outcome ----------------------------------------------------------

    def _outcome_statement(self, i: int, j: int) -> sigma.EQDLStatement:
        """Own masking shares at cell (i, j), 0-based: the cell's base pair
        raised to the outcome exponent, as the statement that proves them."""
        ba, bb = self.run.bases[i][j]
        m = self.m[i][j]
        return sigma.EQDLStatement(
            gens=(ba, bb), targets=(self.params.exp(ba, m), self.params.exp(bb, m)))

    def post_outcome(self) -> Post:
        stmts = [[self._outcome_statement(i, j) for j in range(self.config.k)]
                 for i in range(self.config.n)]
        proofs = [[self._posted_proof(s, self.m[i][j]) for j, s in enumerate(row)]
                  for i, row in enumerate(stmts)]
        payload = {"bidder": self.index,
                   "gamma": [[s.targets[0] for s in row] for row in stmts],
                   "delta": [[s.targets[1] for s in row] for row in stmts],
                   "proofs": None if self.config.interactive else proofs}
        return self._post(ROUND_OUTCOME, "outcome", payload)

    def redraw_exponents(self, cells) -> Post:
        """Replace the outcome exponents at the flagged cells (1-based) and
        post corrected shares."""
        stmts, proofs = [], []
        for ci, cj in cells:
            i, j = ci - 1, cj - 1
            self.m[i][j] = self.rng.randrange(1, self.params.q)
            stmts.append(self._outcome_statement(i, j))
            proofs.append(self._posted_proof(stmts[-1], self.m[i][j]))
        payload = {"bidder": self.index, "cells": [list(c) for c in cells],
                   "gamma": [s.targets[0] for s in stmts],
                   "delta": [s.targets[1] for s in stmts],
                   "proofs": None if self.config.interactive else proofs}
        return self._post(ROUND_OUTCOME, "outcome-fix", payload)

    # -- decryption -------------------------------------------------------

    def decrypt_exponent(self) -> int:
        """The exponent this bidder applies to the delta products.  Honest
        bidders use their key share; subclasses may misbehave here."""
        return self.share.x

    def send_decrypt_shares(self) -> None:
        """Raise every cell's Δ-product to ``decrypt_exponent`` and send the
        shares to the seller, with a hashed proof in hashed mode."""
        params, delta_products = self.params, self.run.delta_products
        x = self.decrypt_exponent()
        self.phi = [[params.exp(d, x) for d in row] for row in delta_products]
        y = self.share.y if self.config.flags.key_consistency else None
        stmt = decrypt_statement(params, delta_products, self.phi, y)
        self.run.seller.receive_shares(self.name, self.phi, self._posted_proof(stmt, x))

    # -- own-row view ------------------------------------------------------

    def own_row_values(self) -> list[int]:
        """v values for this bidder's row, from the seller's publications
        plus the bidder's own decryption share.  Under the authentication
        defense a publication must carry the seller's tag; a publication
        that does not hold this bidder's row of an n x k grid is refused."""
        params, n, mine = self.params, self.config.n, self.index - 1
        published = {}
        for post in self.run.board.select(round=ROUND_DECRYPT, kind="decrypt-publish",
                                          author=SELLER):
            if (self.config.flags.authenticate
                    and not defenses.verify_post(self.run.registry, post)):
                raise AuthRejected(SELLER, ROUND_DECRYPT)
            check_payload(self.config, "decrypt-publish", SELLER, ROUND_DECRYPT,
                          post.payload, row=mine)
            published[post.payload["bidder"]] = post.payload["phi"][mine]
        rows = [self.phi[mine]]
        for h in range(1, n + 1):
            if h != self.index:
                if h not in published:
                    raise MissingShares(f"no published shares from {bidder_name(h)}")
                rows.append(published[h])
        if any(None in row for row in rows):
            raise MissingShares("own row withheld in publication")
        return [elgamal.combine_decrypt(params, pg, partials)
                for pg, partials in zip(self.run.gamma_products[mine], zip(*rows))]


class SellerAgent(Party):
    """Collects decryption shares, verifies their proofs, publishes the
    redacted table, and computes the result.  Never bids."""

    def __init__(self, run: "AuctionRun", rng: random.Random):
        super().__init__(run, SELLER, rng)
        self.shares: dict[str, list[list[int]]] = {}
        self.proofs: dict[str, dict | None] = {}

    def receive_shares(self, author: str, phi, proof_payload) -> None:
        self.shares[author] = phi
        self.proofs[author] = proof_payload

    def verify_decrypt_shares(self) -> None:
        run, n = self.run, self.config.n
        keys = run.keys if self.config.flags.key_consistency else [None] * n
        entries = []
        for i in range(1, n + 1):
            name = bidder_name(i)
            if name not in self.shares:
                raise MissingShares(f"no decryption shares from {name}")
            phi = self.shares[name]
            check_payload(self.config, "decrypt-shares", name, ROUND_DECRYPT,
                          {"phi": phi, "proof": self.proofs[name]})
            stmt = decrypt_statement(self.params, run.delta_products, phi, keys[i - 1])
            entries.append((name, stmt, self.proofs[name],
                            "decrypt share proof failed", ""))
        check_round(run, ROUND_DECRYPT, [self], entries)

    def publish_shares(self) -> None:
        """Post every bidder's shares for all rows except the bidder's own."""
        n = self.config.n
        for h in range(1, n + 1):
            name = bidder_name(h)
            phi = self.shares[name]
            redacted = [
                [None if i == h - 1 else phi[i][j] for j in range(self.config.k)]
                for i in range(n)
            ]
            self._post(ROUND_DECRYPT, "decrypt-publish", {"bidder": h, "phi": redacted})

    def compute_result(self) -> "AuctionOutcome":
        params = self.params
        n, k = self.config.n, self.config.k
        shares = [self.shares[bidder_name(a)] for a in range(1, n + 1)]
        v = [[elgamal.combine_decrypt(params, pg, [phi[i][j] for phi in shares])
              for j, pg in enumerate(g_row)]
             for i, g_row in enumerate(self.run.gamma_products)]
        ones = [(i + 1, j + 1) for i in range(n) for j in range(k) if v[i][j] == 1]
        status = "winner" if len(ones) == 1 else "multiple-ones" if ones else "no-winner"
        bidder, price = ones[0] if status == "winner" else (None, None)
        outcome = AuctionOutcome(status=status, v=v, ones=ones,
                                 winner_bidder=bidder, winner_price=price)
        payload = {
            "status": outcome.status,
            "winner_bidder": outcome.winner_bidder,
            "winner_price": outcome.winner_price,
            "ones": [list(c) for c in outcome.ones],
        }
        self._post(ROUND_RESULT, "result", payload)
        return outcome


@dataclass(frozen=True)
class AuctionOutcome:
    status: str                       # winner | no-winner | multiple-ones
    v: list[list[int]]
    ones: list[tuple[int, int]]       # 1-based cells where v = 1
    winner_bidder: int | None
    winner_price: int | None


# --------------------------------------------------------------------------
# The run driver
# --------------------------------------------------------------------------

class AuctionRun:
    """One complete auction over a fresh board.

    ``agent_factory(run, index, rng)`` lets scenarios slot in misbehaving
    agents at chosen indices; everyone else is honest.  Bidders post in
    index order 1..n in every round, so a dishonest last bidder sees every
    other bidder's post before making its own.  Each round's verify step
    keeps what it read: ``keys`` and ``joint_y``, the base grid ``bases``,
    and the masking shares with their products.
    """

    def __init__(self, config: AuctionConfig, bids: list[int], seed: int,
                 agent_factory=None):
        config.validate()
        if len(bids) != config.n:
            raise ValueError(f"need {config.n} bids, got {len(bids)}")
        self.config = config
        self.bids = list(bids)
        self.seed = seed
        self.board = BulletinBoard()
        self.keys: list[int] | None = None
        self.joint_y: int | None = None
        self.bases = None                    # see compute_outcome_bases
        self.gammas = self.deltas = None
        self.outcome_statements = None       # [a][i][j]: bidder a's at cell (i, j)
        self.gamma_products = self.delta_products = None
        self._outcome_checked = 0            # board position _read_outcome checked to

        master = random.Random(seed)
        self.agents: dict[str, BidderAgent] = {}
        for index in range(1, config.n + 1):
            rng = random.Random(master.randrange(1 << 63))
            if agent_factory is not None:
                agent = agent_factory(self, index, rng)
            else:
                agent = BidderAgent(self, index, rng)
            self.agents[agent.name] = agent
        self.seller = SellerAgent(self, random.Random(master.randrange(1 << 63)))

        self.registry = None
        if config.flags.authenticate:
            self.registry = defenses.AuthRegistry()
            reg_rng = random.Random(master.randrange(1 << 63))
            for party in (*self.agents.values(), self.seller):
                party.auth_key = self.registry.register(party.name, reg_rng)

    # -- helpers -----------------------------------------------------------

    def bidder(self, index: int) -> BidderAgent:
        return self.agents[bidder_name(index)]

    def honest_agents(self) -> list[BidderAgent]:
        return [a for a in self.agents.values() if a.honest]

    def _check_auth(self, round_name: str, since: int = 0) -> None:
        """Check the tags of the round's posts from board position ``since``."""
        if not self.config.flags.authenticate:
            return
        for post in self.board.posts[since:]:
            if post.round == round_name and not defenses.verify_post(self.registry, post):
                raise AuthRejected(post.author, round_name)

    # -- rounds ------------------------------------------------------------

    def step_keygen(self) -> None:
        for index in range(1, self.config.n + 1):
            self.bidder(index).keygen()
        self._check_auth(ROUND_KEYGEN)
        self._verify_keygen()

    def _verify_keygen(self) -> None:
        """Read the key shares, check them, and keep them with the joint key."""
        params, n = self.config.params, self.config.n
        shares = collect_keyshares(self.board, n)
        entries = []
        for name, payload in shares.items():
            check_payload(self.config, "keyshare", name, ROUND_KEYGEN, payload)
            entries.append((name, sigma.PDLStatement(g=params.g, v=payload["y"]),
                            payload["proof"], "key share proof failed", ""))
        check_round(self, ROUND_KEYGEN, self.honest_agents(), entries)
        self.keys = [shares[bidder_name(i)]["y"] for i in range(1, n + 1)]
        self.joint_y = elgamal.aggregate_keys(params, self.keys)

    def step_bid(self) -> None:
        for index in range(1, self.config.n + 1):
            self.bidder(index).submit_bid(self.bids[index - 1])
        self._check_auth(ROUND_BID)
        self._verify_bids()

    def _verify_bids(self) -> None:
        """Read the bids, check them, and keep the outcome-base grid."""
        params, n, k = self.config.params, self.config.n, self.config.k
        bids = collect_bids(self.board, n)
        entries = []
        for name, payload in bids.items():
            check_payload(self.config, "bid", name, ROUND_BID, payload)
            if bidder_name(payload["bidder"]) != name:
                raise ProofRejected(name, ROUND_BID, f"malformed bid: bidder "
                                    f"{payload['bidder']} is not its author")
            marker = self.config.marker_for(payload["bidder"])
            cells, total = bid_statements(params, self.joint_y, marker,
                                          payload["alphas"], payload["betas"])
            proofs = payload["proofs"]
            if proofs is None:
                proofs = [None] * k                 # missing: reported per price
            for j, (stmt, proof) in enumerate(zip(cells, proofs)):
                entries.append((name, stmt, proof,
                                "validity proof failed", f" at price {j + 1}"))
            entries.append((name, total, payload["sum_proof"], "sum proof failed", ""))
        check_round(self, ROUND_BID, self.honest_agents(), entries)
        rows = [bids[bidder_name(i)] for i in range(1, n + 1)]
        self.bases = compute_outcome_bases(params, [row["alphas"] for row in rows],
                                           [row["betas"] for row in rows])

    def step_outcome(self) -> None:
        if self.config.flags.noise_product_check:
            cells = defenses.scan_exceptional_bases(self.bases)
            if cells:
                raise RestartRequired("exceptional base product", cells)
        for index in range(1, self.config.n + 1):
            self.bidder(index).post_outcome()
        self._check_auth(ROUND_OUTCOME)
        if self.config.flags.noise_product_check:
            fixes_from = len(self.board.posts)
            self._noise_product_pass()
            self._check_auth(ROUND_OUTCOME, since=fixes_from)
        self._verify_outcome()

    def _noise_product_pass(self) -> None:
        """Abort on cancelled masking, then redraw the exponents at cells
        whose joint product collapsed, at most ten times."""
        params, n = self.config.params, self.config.n
        products = cell_products(params, self._read_outcome()[0])
        cancelled = defenses.check_noise_cancellation(self.bases, products)
        if cancelled:
            raise RestartRequired(NOISE_CANCELLED, cancelled)
        for _ in range(10):
            flagged = defenses.check_noise_products(products)
            if not flagged:
                return
            for index in range(1, n + 1):
                self.bidder(index).redraw_exponents(flagged)
            products = cell_products(params, self._read_outcome()[0])
        raise RestartRequired("noise products kept collapsing", [])

    def _read_outcome(self):
        """The masking shares and proofs as ``collect_outcome`` merges them,
        after checking each outcome or fix post against its schema.  Each
        post is checked once, by the first read that sees it."""
        posts = self.board.posts
        for post in posts[self._outcome_checked:]:
            if post.round == ROUND_OUTCOME and post.kind in ("outcome", "outcome-fix"):
                check_payload(self.config, post.kind, post.author, ROUND_OUTCOME,
                              post.payload)
        self._outcome_checked = len(posts)
        return collect_outcome(self.board, self.config.n, self.config.k)

    def _verify_outcome(self) -> None:
        """Read the masking shares and keep them, with their cell products
        and the grid of their statements, before checking them: a relaying
        prover reads them in its sessions."""
        params, n, k = self.config.params, self.config.n, self.config.k
        gammas, deltas, proofs = self._read_outcome()
        self.gammas, self.deltas = gammas, deltas
        self.gamma_products = cell_products(params, gammas)
        self.delta_products = cell_products(params, deltas)
        eqdl, bases = sigma.EQDLStatement, self.bases
        self.outcome_statements = [
            [[eqdl(base, (gamma, delta))
              for base, gamma, delta in zip(base_row, gamma_row, delta_row)]
             for base_row, gamma_row, delta_row in zip(bases, gamma_grid, delta_grid)]
            for gamma_grid, delta_grid in zip(gammas, deltas)]
        entries = [(bidder_name(a + 1), self.outcome_statements[a][i][j], proofs[a][i][j],
                    "masking proof failed", f" at cell ({i + 1},{j + 1})")
                   for a in range(n) for i in range(n) for j in range(k)]
        check_round(self, ROUND_OUTCOME, self.honest_agents(), entries)

    def step_decrypt(self) -> None:
        for index in range(1, self.config.n + 1):
            self.bidder(index).send_decrypt_shares()
        self.seller.verify_decrypt_shares()
        self.seller.publish_shares()
        self._check_auth(ROUND_DECRYPT)

    def determine_winner(self) -> AuctionOutcome:
        return self.seller.compute_result()

    def run(self) -> AuctionOutcome:
        try:
            self.step_keygen()
            self.step_bid()
            self.step_outcome()
            self.step_decrypt()
            return self.determine_winner()
        finally:
            self.config.params._drop_tables()   # tables live for one run


def run_auction(config: AuctionConfig, bids: list[int], seed: int,
                **kwargs) -> tuple[AuctionRun, AuctionOutcome]:
    run = AuctionRun(config, bids, seed, **kwargs)
    return run, run.run()


def with_restarts(attempt, seed: int):
    """Call ``attempt(seed)``, ``attempt(seed + 1)``, ... until a call
    returns without RestartRequired, and return what it returned.  The last
    of ``MAX_ATTEMPTS`` calls raises whatever it raises."""
    for offset in range(MAX_ATTEMPTS - 1):
        try:
            return attempt(seed + offset)
        except RestartRequired:
            pass
    return attempt(seed + MAX_ATTEMPTS - 1)


def decisive(run: AuctionRun) -> AuctionOutcome:
    """``run.run()``, or RestartRequired when no cell decides the auction.
    Chance exponent collisions in a small group routinely produce stray 1
    cells; an operator restarts such an undecidable auction, which is also
    what the pre-publication checks demand via RestartRequired."""
    outcome = run.run()
    if outcome.status == "multiple-ones":
        raise RestartRequired("no decisive outcome", outcome.ones)
    return outcome


def run_with_restarts(config: AuctionConfig, bids: list[int], seed: int,
                      **kwargs):
    """Re-run with derived seeds until ``decisive`` accepts the outcome.
    Returns (run, outcome, attempts_used), after at most MAX_ATTEMPTS."""
    def attempt(attempt_seed):
        run = AuctionRun(config, bids, attempt_seed, **kwargs)
        return run, decisive(run)

    run, outcome = with_restarts(attempt, seed)
    return run, outcome, run.seed - seed + 1


def expected_winner(bids: list[int]) -> tuple[int, int]:
    """Analytic result: highest price wins, lowest index breaks ties."""
    price = max(bids)
    return bids.index(price) + 1, price
