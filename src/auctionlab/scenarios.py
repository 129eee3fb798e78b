"""Named end-to-end scenarios with built-in expectations.

Each scenario runs a story, states what should happen under the chosen
defense flags, and reports whether it did.  The CLI maps expectation-met to
exit code 0 and mismatch to 1, so a scenario run doubles as a check.

Note the distinction the reports keep: ``success`` is the attacker's goal
(or the honest run's correctness), while ``expectation_met`` compares what
happened against what the flags say should happen.  A blocked attack has
success false and, when a defense was on, expectation met.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import attacks, recovery, sigma
from .defenses import DefenseFlags
from .errors import AuctionLabError, IoError, RestartRequired, UsageError
from .groups import DEFAULT_MARKER, GROUPS_BY_NAME, GroupParams
from .protocol import (
    NOISE_CANCELLED,
    AuctionConfig,
    bidder_name,
    encode_bid,
    expected_winner,
    run_with_restarts,
)


@dataclass
class ScenarioSpec:
    """Everything a scenario needs, parsed and validated."""

    scenario: str
    n: int = 3
    k: int = 3
    bids: list[int] | None = None
    seed: int = 7
    group_name: str = "small"
    params: GroupParams | None = None
    marker: int | None = None
    flags: DefenseFlags = field(default_factory=DefenseFlags)
    exponent: int = 1
    target_bid: int | None = None
    cell: tuple[int, int] | None = None
    rerandomize: bool = False
    claim: tuple[int, int, int] = (1, 1, -1)

    def __post_init__(self):
        """Resolve the group and marker once: an explicit marker wins, a
        named group brings its default, and custom params take g^2."""
        if self.params is None:
            if self.group_name not in GROUPS_BY_NAME:
                raise UsageError(f"unknown group {self.group_name!r}; known groups: "
                                 f"{', '.join(GROUPS_BY_NAME)}")
            self.params = GROUPS_BY_NAME[self.group_name]
            if self.marker is None:
                self.marker = DEFAULT_MARKER[self.group_name]
        elif self.marker is None:
            self.marker = self.params.exp(self.params.g, 2)

    def config(self) -> AuctionConfig:
        config = AuctionConfig(n=self.n, k=self.k, params=self.params,
                               marker=self.marker, flags=self.flags)
        try:
            config.validate()
        except ValueError as exc:
            raise UsageError(f"bad configuration: {exc}") from exc
        return config

    def resolved_bids(self) -> list[int]:
        if self.bids is not None:
            if len(self.bids) != self.n:
                raise UsageError(f"--bids needs {self.n} values, got {len(self.bids)}")
            for b in self.bids:
                if not 1 <= b <= self.k:
                    raise UsageError(f"--bids value {b} outside 1..{self.k}")
            return list(self.bids)
        return [(i % self.k) + 1 for i in range(self.n)]

    def resolved_target_bid(self) -> int:
        """The impersonation target's secret bid: 2 by default, 1 when k = 1."""
        target = self.target_bid if self.target_bid is not None else min(2, self.k)
        if not 1 <= target <= self.k:
            raise UsageError(f"--target-bid value {target} outside 1..{self.k}")
        return target

    def resolved_cell(self, bids: list[int]) -> tuple[int, int]:
        """The exceptional-values target: a losing cell inside the grid."""
        cell = self.cell if self.cell is not None else (1, 1)
        if not (1 <= cell[0] <= self.n and 1 <= cell[1] <= self.k):
            raise UsageError(f"--cell {cell[0]},{cell[1]} outside "
                             f"1..{self.n} x 1..{self.k}")
        if cell == expected_winner(bids):
            raise UsageError(f"--cell {cell[0]},{cell[1]} is the winning cell; "
                             "pick a losing one")
        return cell


@dataclass
class ScenarioResult:
    report: dict
    expectation_met: bool
    board_json: list | None = None
    # Wall-clock measurements live here, never in the report: report bytes
    # must be identical across runs with the same seed.
    timing: dict = field(default_factory=dict)


def _scenario_result(spec: ScenarioSpec, expectation: str, success: bool,
                     met: bool, outcome: dict, board=None,
                     notes=()) -> ScenarioResult:
    """The scenario's report, with the transcript of ``board`` when the
    scenario ran on one."""
    params = spec.params
    report = {
        "scenario": spec.scenario,
        "seed": spec.seed,
        "group": {"p": params.p, "q": params.q, "g": params.g},
        "marker": spec.marker,
        "n": spec.n,
        "k": spec.k,
        "flags": asdict(spec.flags),
        "expectation": expectation,
        "expectation_met": met,
        "success": success,
        "outcome": outcome,
        "notes": list(notes),
    }
    return ScenarioResult(report, met, board.to_json() if board is not None else None)


def _refusal(spec: ScenarioSpec, expectation: str, attack,
             report: attacks.AttackReport | None = None) -> ScenarioResult:
    """Hashed-proof branch of a relay attack: the expectation is met when
    ``attack()`` is refused with a lab error.  The result carries the board
    of ``report``'s last run, when a report is given."""
    try:
        attack()
    except AuctionLabError as exc:
        met, outcome = True, {"error": type(exc).__name__, "detail": str(exc)}
    else:
        met, outcome = False, {}
    return _scenario_result(spec, expectation, not met, met, outcome,
                            report.board if report is not None else None)


# --------------------------------------------------------------------------
# Scenario implementations
# --------------------------------------------------------------------------

def scenario_honest(spec: ScenarioSpec) -> ScenarioResult:
    bids = spec.resolved_bids()
    run, outcome, attempts = run_with_restarts(spec.config(), bids, spec.seed)
    want = expected_winner(bids)
    ok = (outcome.status == "winner"
          and (outcome.winner_bidder, outcome.winner_price) == want)
    notes = [f"{attempts - 1} restart(s) before a decisive outcome; expected "
             "at desk scale where chance exponent collisions are common"
             ] if attempts > 1 else []
    return _scenario_result(
        spec, "unique correct winner, all proofs verify", ok, ok,
        {"bids": bids, "status": outcome.status,
         "winner_bidder": outcome.winner_bidder,
         "winner_price": outcome.winner_price, "v": outcome.v,
         "attempts": attempts, "expected_winner": list(want)},
        run.board, notes)


def scenario_full_privacy(spec: ScenarioSpec) -> ScenarioResult:
    bids = spec.resolved_bids()
    flags = spec.flags
    result = attacks.full_privacy_attack(spec.config(), bids, spec.seed,
                                         exponent=spec.exponent)
    notes = []
    if flags.ni_proofs:
        expectation = "attack blocked: no interactive sessions to relay"
        notes.append("non-interactive override: the attack needs "
                     "interactive proofs and is expected to fail")
        met = not result.success and result.error in ("ProofRejected", "RestartRequired")
    elif flags.noise_product_check and spec.exponent % spec.params.q == 1:
        expectation = "attack detected by the product check (unit exponent)"
        met = not result.success and bool(result.extras.get("detected"))
    else:
        expectation = ("attack succeeds despite the product check "
                       "(secret exponent evades it)" if flags.noise_product_check
                       else "all bids recovered; declared winner unchanged")
        met = result.success
    return _scenario_result(spec, expectation, result.success, met,
                            {"bids": bids, **result.to_dict()}, result.board, notes)


def scenario_mitm_demo(spec: ScenarioSpec) -> ScenarioResult:
    params = spec.params
    h, a, b = spec.claim
    claim = attacks.AffineClaim(h=h, a=a, b=b)
    if spec.flags.ni_proofs:
        return _refusal(spec, "relay refused under hashed challenges",
                        lambda: attacks.mitm_affine_pdl(params, claim, None, None,
                                                        flags=spec.flags))

    rng = random.Random(spec.seed)
    x = rng.randrange(1, params.q)
    v = params.exp(params.g, x)
    peggy = sigma.ProverSession(params, sigma.PDLStatement(g=params.g, v=v), x, rng)
    victor_rng = random.Random(spec.seed + 1)
    result = attacks.mitm_affine_pdl(
        params, claim, peggy, sigma.verifier_source(params, victor_rng))
    victor_ok = sigma.verify_transcript(
        params, sigma.PDLStatement(g=params.g, v=result.claimed_value),
        result.victor_transcript, require_hashed=False)
    peggy_ok = sigma.verify_transcript(
        params, peggy.stmt, result.peggy_transcript, require_hashed=False)
    met = victor_ok and peggy_ok
    return _scenario_result(
        spec, "both verifiers accept; the relayed claim was never known", met, met,
        {"claim": {"h": h, "a": a, "b": b},
         "prover_value": v,
         "claimed_value": result.claimed_value,
         "victor_accepts": victor_ok,
         "peggy_completes": peggy_ok,
         "victor_transcript": sigma.transcript_to_payload(result.victor_transcript),
         "peggy_transcript": sigma.transcript_to_payload(result.peggy_transcript)})


def scenario_forged_eqdl(spec: ScenarioSpec) -> ScenarioResult:
    bids = spec.resolved_bids()
    config = spec.config()
    mallory = config.n
    factory = attacks.dishonest_bidder(mallory, attacks.NoiseRemovalBidder,
                                       spec.exponent)

    def through_outcome(run):
        run.step_keygen()
        run.step_bid()
        run.step_outcome()      # includes per-cell verification by all
        return run.outcome_statements[mallory - 1][0][0]    # forged at (1,1)

    report = attacks.AttackReport(scenario=spec.scenario)
    if spec.flags.ni_proofs:
        def attack():
            if attacks.attack_runs(report, config, bids, spec.seed, factory,
                                   steps=through_outcome)[1] is None:
                # The product check refused the shares before any proof was read.
                raise RestartRequired(NOISE_CANCELLED, report.extras["flagged_cells"])

        return _refusal(spec, "forgery impossible under hashed challenges", attack,
                        report)

    unit = spec.flags.noise_product_check and spec.exponent % config.params.q == 1
    expectation = ("forgery detected by the product check (unit exponent)" if unit
                   else "honest verifier accepts a proof nobody holds a witness for")

    try:
        run, stmt = attacks.attack_runs(report, config, bids, spec.seed, factory,
                                        steps=through_outcome)
    except RestartRequired:
        return _scenario_result(spec, expectation, False, False, {},
                                notes=["no run survived the restart checks"])
    if stmt is None:            # the product check caught the attack
        return _scenario_result(
            spec, expectation, False, unit,
            {"cell": [1, 1], "error": report.error, "detail": report.detail,
             **report.extras},
            run.board)

    # One explicit forged transcript, challenged by a fresh honest verifier.
    verifier_rng = random.Random(spec.seed + 999)
    tr = attacks.forge_outcome_eqdl(run, bidder_name(mallory), 0, 0,
                                    spec.exponent,
                                    sigma.verifier_source(config.params,
                                                          verifier_rng))
    accepted = sigma.verify_transcript(config.params, stmt, tr, require_hashed=False)
    return _scenario_result(
        spec, expectation, accepted, accepted and not unit,
        {"cell": [1, 1],
         "round_verification_passed": True,
         "explicit_forged_transcript": sigma.transcript_to_payload(tr),
         "accepted": accepted},
        run.board)


def scenario_impersonation(spec: ScenarioSpec) -> ScenarioResult:
    result = attacks.impersonation_attack(spec.config(), spec.resolved_target_bid(),
                                          spec.seed, rerandomize=spec.rerandomize)
    if spec.flags.authenticate:
        blocked_by = "AuthRejected"
        expectation = "forged bid posts rejected in the bid round"
    elif spec.rerandomize and spec.flags.ni_proofs:
        # Hashed transcripts cannot be shifted to fit re-randomised copies.
        blocked_by = "ProofRejected"
        expectation = "re-randomised copies carry no proofs; rejected in the bid round"
    else:
        blocked_by = None
        expectation = "winning price reveals the target's secret bid"
    met = result.success if blocked_by is None else (
        not result.success and result.error == blocked_by
        and result.extras.get("rejected_round") == "bid")
    return _scenario_result(spec, expectation, result.success, met,
                            result.to_dict(), result.board)


def scenario_exceptional_values(spec: ScenarioSpec) -> ScenarioResult:
    bids = spec.resolved_bids()
    result = attacks.force_zero_noise(spec.config(), bids,
                                      spec.resolved_cell(bids), spec.seed)
    if spec.flags.noise_product_check:
        expectation = "collapsed cell redrawn; unique correct winner stands"
        met = (not result.success and result.status == "winner"
               and (result.winner_bidder, result.winner_price) == expected_winner(bids))
    else:
        expectation = "forced cell reads 1; seller cannot decide the winner"
        met = result.success
    return _scenario_result(spec, expectation, result.success, met,
                            result.to_dict(), result.board)


def wrong_key_pass_threshold(batch: int, bound: float) -> int:
    """Fewest no-winner runs out of ``batch`` that pass the undefended
    wrong-key scenario when each run shows a chance 1 cell with probability
    at most ``bound``: the expected count ``batch * (1 - bound)`` less a
    slack of three binomial standard deviations, rounded up."""
    mean = batch * (1 - bound)
    slack = 3 * math.sqrt(batch * bound * (1 - bound))
    return max(0, math.ceil(mean - slack))


def scenario_wrong_key(spec: ScenarioSpec) -> ScenarioResult:
    bids = spec.resolved_bids()
    if spec.flags.key_consistency:
        result = attacks.wrong_key_decrypt(spec.config(), bids, spec.seed)
        return _scenario_result(
            spec, "decrypt share rejected: proof must bind the keygen share",
            result.success, not result.success and result.error == "ProofRejected",
            result.to_dict(), result.board)

    batch = 20
    q = spec.params.q
    bound = min(1.0, 2 * spec.n * spec.k / q)
    want = expected_winner(bids)
    results = []
    for i in range(batch):
        result = attacks.wrong_key_decrypt(spec.config(), bids,
                                           spec.seed + 1000 * i)
        results.append({
            "status": result.status or result.error,
            "winner_bidder": result.winner_bidder,
            "winner_price": result.winner_price,
        })
    no_winner = sum(r["status"] == "no-winner" for r in results)
    correct = sum(r["status"] == "winner"
                  and (r["winner_bidder"], r["winner_price"]) == want
                  for r in results)
    outcome = {
        "bids": bids,
        "batch": batch,
        "results": results,
        "no_winner_runs": no_winner,
        "runs_matching_honest_outcome": correct,
        "chance_one_bound_per_run": bound,
    }
    notes = []
    if q >= 100:
        needed = wrong_key_pass_threshold(batch, bound)
        expectation = f"at least {needed} of {batch} runs end with no winner"
        outcome["no_winner_runs_needed"] = needed
        met = no_winner >= needed
    else:
        expectation = ("the published result no longer tracks the bids "
                       "(chance 1 cells at tiny q are documented)")
        met = no_winner >= 1 and (batch - correct) > batch // 2
        notes.append(
            f"at q={q} a garbage cell decrypts to 1 with probability about "
            f"2/q, so chance winners and confusions appear; rerun with "
            f"--group mid for the clean no-winner statistics")
    # The last run's board stands for the batch.
    return _scenario_result(spec, expectation, met, met, outcome, result.board, notes)


def scenario_recovery_bench(spec: ScenarioSpec) -> ScenarioResult:
    n, k = spec.n, spec.k
    start = time.perf_counter()
    matrix = recovery.build_matrix(n, k)
    rng = random.Random(spec.seed)
    bids = [rng.randrange(1, k + 1) for _ in range(n)]
    flat = [bit for price in bids for bit in encode_bid(price, k)]
    image = recovery.apply_f(matrix, flat)
    solved = recovery.recover_bids(image, n, k)
    elapsed = time.perf_counter() - start
    # recover_bids spends 6nk - 2n additions, within n^2 k^2 once nk >= 6;
    # below that the linear bound 6nk is the budget.
    budget = max(n * n * k * k, 6 * n * k)
    ok = list(solved.b) == flat and solved.additions <= budget
    result = _scenario_result(
        spec, "round-trip exact; addition count within the quadratic budget", ok, ok,
        {"n": n,
         "k": k,
         "additions": solved.additions,
         "budget": budget,
         "ratio": solved.additions / budget,
         "round_trip_exact": list(solved.b) == flat})
    result.timing["elapsed_seconds"] = elapsed
    return result


_RUNNERS = {
    "honest": scenario_honest,
    "full-privacy-attack": scenario_full_privacy,
    "mitm-demo": scenario_mitm_demo,
    "forged-eqdl": scenario_forged_eqdl,
    "impersonation": scenario_impersonation,
    "exceptional-values": scenario_exceptional_values,
    "wrong-key": scenario_wrong_key,
    "recovery-bench": scenario_recovery_bench,
}
SCENARIOS = tuple(_RUNNERS)


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    if spec.scenario not in _RUNNERS:
        raise UsageError(f"--scenario must be one of: {', '.join(SCENARIOS)}")
    try:
        return _RUNNERS[spec.scenario](spec)
    finally:
        spec.params._drop_tables()   # not every runner reaches AuctionRun.run


def emit_report(result: ScenarioResult, out_dir: Path) -> list[Path]:
    """Write report.json, and transcript.json when a board exists; without
    one, remove a transcript.json an earlier run left.  Identical seeds
    produce identical bytes."""
    paths = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "report.json"
        report_path.write_text(json.dumps(result.report, indent=2) + "\n")
        paths.append(report_path)
        transcript_path = out_dir / "transcript.json"
        transcript_path.unlink(missing_ok=True)
        if result.board_json is not None:
            transcript_path.write_text(
                json.dumps(result.board_json, indent=2) + "\n")
            paths.append(transcript_path)
    except OSError as exc:
        raise IoError(f"could not write reports under {out_dir}: {exc}") from exc
    return paths
