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
from dataclasses import dataclass, field
from pathlib import Path

from . import attacks, recovery, sigma
from .defenses import DefenseFlags
from .errors import (AuctionLabError, IoError, ModeMismatch, RestartRequired,
                     UsageError)
from .groups import DEFAULT_MARKER, GROUPS_BY_NAME, GroupParams
from .protocol import (
    AuctionConfig,
    AuctionRun,
    bidder_name,
    encode_bid,
    expected_winner,
    run_with_restarts,
    with_restarts,
)

SCENARIOS = (
    "honest",
    "full-privacy-attack",
    "mitm-demo",
    "forged-eqdl",
    "impersonation",
    "exceptional-values",
    "wrong-key",
    "recovery-bench",
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
    out_dir: Path | None = None
    notes: list[str] = field(default_factory=list)

    def resolved_params(self) -> GroupParams:
        if self.params is not None:
            return self.params
        return GROUPS_BY_NAME[self.group_name]

    def resolved_marker(self) -> int:
        if self.marker is not None:
            return self.marker
        if self.params is not None:
            return self.params.exp(self.params.g, 2)
        return DEFAULT_MARKER[self.group_name]

    def config(self) -> AuctionConfig:
        config = AuctionConfig(n=self.n, k=self.k, params=self.resolved_params(),
                               marker=self.resolved_marker(), flags=self.flags)
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


def _base_report(spec: ScenarioSpec, expectation: str) -> dict:
    params = spec.resolved_params()
    return {
        "scenario": spec.scenario,
        "seed": spec.seed,
        "group": {"p": params.p, "q": params.q, "g": params.g},
        "marker": spec.resolved_marker(),
        "n": spec.n,
        "k": spec.k,
        "flags": spec.flags.as_dict(),
        "expectation": expectation,
        "expectation_met": None,
        "success": None,
        "outcome": {},
        "notes": list(spec.notes),
    }


# --------------------------------------------------------------------------
# Scenario implementations
# --------------------------------------------------------------------------

def scenario_honest(spec: ScenarioSpec) -> ScenarioResult:
    bids = spec.resolved_bids()
    report = _base_report(spec, "unique correct winner, all proofs verify")
    report["outcome"]["bids"] = bids
    run, outcome, attempts = run_with_restarts(spec.config(), bids, spec.seed)
    want = expected_winner(bids)
    ok = (outcome.status == "winner"
          and (outcome.winner_bidder, outcome.winner_price) == want)
    report["success"] = ok
    report["expectation_met"] = ok
    report["outcome"].update({
        "status": outcome.status,
        "winner_bidder": outcome.winner_bidder,
        "winner_price": outcome.winner_price,
        "v": outcome.v,
        "attempts": attempts,
        "expected_winner": list(want),
    })
    if attempts > 1:
        report["notes"].append(
            f"{attempts - 1} restart(s) before a decisive outcome; expected "
            "at desk scale where chance exponent collisions are common")
    return ScenarioResult(report, ok, run.board.to_json())


def scenario_full_privacy(spec: ScenarioSpec) -> ScenarioResult:
    bids = spec.resolved_bids()
    flags = spec.flags
    if flags.ni_proofs:
        expectation = "attack blocked: no interactive sessions to relay"
    elif flags.noise_product_check and spec.exponent % spec.resolved_params().q == 1:
        expectation = "attack detected by the product check (unit exponent)"
    elif flags.noise_product_check:
        expectation = ("attack succeeds despite the product check "
                       "(secret exponent evades it)")
    else:
        expectation = "all bids recovered; declared winner unchanged"
    report = _base_report(spec, expectation)
    if flags.ni_proofs:
        report["notes"].append("non-interactive override: the attack needs "
                               "interactive proofs and is expected to fail")
    report["outcome"]["bids"] = bids

    result = attacks.full_privacy_attack(spec.config(), bids, spec.seed,
                                         exponent=spec.exponent)
    report["success"] = result.success
    report["outcome"].update(result.to_dict())
    if flags.ni_proofs:
        met = not result.success and result.error in ("ProofRejected", "RestartRequired")
    elif flags.noise_product_check and spec.exponent % spec.resolved_params().q == 1:
        met = not result.success and bool(result.extras.get("detected"))
    else:
        met = result.success
    report["expectation_met"] = met
    return ScenarioResult(report, met, _board_json(result))


def _board_json(attack_report) -> list | None:
    board = attack_report.board
    return board.to_json() if board is not None else None


def scenario_mitm_demo(spec: ScenarioSpec) -> ScenarioResult:
    params = spec.resolved_params()
    h, a, b = spec.claim
    claim = attacks.AffineClaim(h=h, a=a, b=b)
    if spec.flags.ni_proofs:
        report = _base_report(spec, "relay refused under hashed challenges")
        try:
            attacks.mitm_affine_pdl(params, claim, None, None, flags=spec.flags)
            report["expectation_met"] = False
            report["success"] = True
        except ModeMismatch as exc:
            report["outcome"]["error"] = "ModeMismatch"
            report["outcome"]["detail"] = str(exc)
            report["success"] = False
            report["expectation_met"] = True
        return ScenarioResult(report, report["expectation_met"])

    report = _base_report(
        spec, "both verifiers accept; the relayed claim was never known")
    rng = random.Random(spec.seed)
    x = params.random_scalar(rng, nonzero=True)
    v = params.exp(params.g, x)
    peggy = attacks.InteractiveProver(
        params, sigma.PDLStatement(g=params.g, v=v), x, rng)
    victor_rng = random.Random(spec.seed + 1)
    result = attacks.mitm_affine_pdl(
        params, claim, peggy, sigma.verifier_source(params, victor_rng))
    victor_ok = sigma.verify_pdl(
        params, sigma.PDLStatement(g=params.g, v=result.claimed_value),
        result.victor_transcript)
    peggy_ok = sigma.verify_pdl(
        params, sigma.PDLStatement(g=params.g, v=v), result.peggy_transcript)
    met = victor_ok and peggy_ok
    report["success"] = met
    report["expectation_met"] = met
    report["outcome"].update({
        "claim": {"h": h, "a": a, "b": b},
        "prover_value": v,
        "claimed_value": result.claimed_value,
        "victor_accepts": victor_ok,
        "peggy_completes": peggy_ok,
        "victor_transcript": sigma.transcript_to_payload(result.victor_transcript),
        "peggy_transcript": sigma.transcript_to_payload(result.peggy_transcript),
    })
    return ScenarioResult(report, met)


def scenario_forged_eqdl(spec: ScenarioSpec) -> ScenarioResult:
    bids = spec.resolved_bids()
    config = spec.config()
    mallory = config.n
    order = [i for i in range(1, config.n + 1) if i != mallory] + [mallory]
    factory = attacks.dishonest_bidder(mallory, attacks.NoiseRemovalBidder,
                                       spec.exponent)

    runs = []

    def attempt(attempt_seed):
        run = AuctionRun(config, bids, attempt_seed, agent_factory=factory,
                         outcome_order=order)
        runs.append(run)
        run.step_keygen()
        run.step_bid()
        run.step_outcome()      # includes per-cell verification by all
        return run

    if spec.flags.ni_proofs:
        report = _base_report(spec, "forgery impossible under hashed challenges")
        try:
            attempt(spec.seed)
            report["expectation_met"] = False
            report["success"] = True
        except AuctionLabError as exc:
            report["outcome"]["error"] = type(exc).__name__
            report["outcome"]["detail"] = str(exc)
            report["success"] = False
            report["expectation_met"] = True
        return ScenarioResult(report, report["expectation_met"],
                              runs[0].board.to_json())

    report = _base_report(
        spec, "honest verifier accepts a proof nobody holds a witness for")
    try:
        run = with_restarts(attempt, spec.seed, 50)
    except RestartRequired:
        report["expectation_met"] = False
        report["success"] = False
        report["notes"].append("no run survived the restart checks")
        return ScenarioResult(report, False)

    # One explicit forged transcript, challenged by a fresh honest verifier.
    verifier_rng = random.Random(spec.seed + 999)
    tr = attacks.forge_outcome_eqdl(run, bidder_name(mallory), 0, 0,
                                    spec.exponent,
                                    sigma.verifier_source(config.params,
                                                          verifier_rng))
    stmt = sigma.EQDLStatement(
        gens=run.bases[0][0],
        targets=(run.gammas[mallory - 1][0][0], run.deltas[mallory - 1][0][0]))
    accepted = sigma.verify_eqdl(config.params, stmt, tr)
    report["success"] = accepted
    report["expectation_met"] = accepted
    report["outcome"].update({
        "cell": [1, 1],
        "round_verification_passed": True,
        "explicit_forged_transcript": sigma.transcript_to_payload(tr),
        "accepted": accepted,
    })
    return ScenarioResult(report, accepted, run.board.to_json())


def scenario_impersonation(spec: ScenarioSpec) -> ScenarioResult:
    target_bid = spec.target_bid if spec.target_bid is not None else min(2, spec.k)
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
    report = _base_report(spec, expectation)
    result = attacks.impersonation_attack(spec.config(), target_bid, spec.seed,
                                          rerandomize=spec.rerandomize)
    report["success"] = result.success
    report["outcome"].update(result.to_dict())
    if blocked_by is not None:
        met = (not result.success and result.error == blocked_by
               and result.extras.get("rejected_round") == "bid")
    else:
        met = result.success
    report["expectation_met"] = met
    return ScenarioResult(report, met, _board_json(result))


def scenario_exceptional_values(spec: ScenarioSpec) -> ScenarioResult:
    bids = spec.resolved_bids()
    cell = spec.resolved_cell(bids)
    if spec.flags.noise_product_check:
        expectation = "collapsed cell redrawn; unique correct winner stands"
    else:
        expectation = "forced cell reads 1; seller cannot decide the winner"
    report = _base_report(spec, expectation)
    result = attacks.force_zero_noise(spec.config(), bids, cell, spec.seed)
    report["success"] = result.success
    report["outcome"].update(result.to_dict())
    if spec.flags.noise_product_check:
        want = expected_winner(bids)
        met = (not result.success and result.status == "winner"
               and (result.winner_bidder, result.winner_price) == want)
    else:
        met = result.success
    report["expectation_met"] = met
    return ScenarioResult(report, met, _board_json(result))


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
        report = _base_report(
            spec, "decrypt share rejected: proof must bind the keygen share")
        result = attacks.wrong_key_decrypt(spec.config(), bids, spec.seed)
        report["success"] = result.success
        report["outcome"].update(result.to_dict())
        met = not result.success and result.error == "ProofRejected"
        report["expectation_met"] = met
        return ScenarioResult(report, met, _board_json(result))

    batch = 20
    q = spec.resolved_params().q
    bound = min(1.0, 2 * spec.n * spec.k / q)
    needed = wrong_key_pass_threshold(batch, bound)
    if q >= 100:
        expectation = f"at least {needed} of {batch} runs end with no winner"
    else:
        expectation = ("the published result no longer tracks the bids "
                       "(chance 1 cells at tiny q are documented)")
    report = _base_report(spec, expectation)
    want = expected_winner(bids)
    results = []
    last_board = None
    for i in range(batch):
        result = attacks.wrong_key_decrypt(spec.config(), bids,
                                           spec.seed + 1000 * i)
        last_board = _board_json(result) or last_board
        results.append({
            "status": result.status or result.error,
            "winner_bidder": result.winner_bidder,
            "winner_price": result.winner_price,
        })
    no_winner = sum(r["status"] == "no-winner" for r in results)
    correct = sum(r["status"] == "winner"
                  and (r["winner_bidder"], r["winner_price"]) == want
                  for r in results)
    report["outcome"].update({
        "bids": bids,
        "batch": batch,
        "results": results,
        "no_winner_runs": no_winner,
        "runs_matching_honest_outcome": correct,
        "chance_one_bound_per_run": bound,
    })
    if q >= 100:
        report["outcome"]["no_winner_runs_needed"] = needed
        met = no_winner >= needed
    else:
        met = no_winner >= 1 and (batch - correct) > batch // 2
        report["notes"].append(
            f"at q={q} a garbage cell decrypts to 1 with probability about "
            f"2/q, so chance winners and confusions appear; rerun with "
            f"--group mid for the clean no-winner statistics")
    report["success"] = met
    report["expectation_met"] = met
    return ScenarioResult(report, met, last_board)


def scenario_recovery_bench(spec: ScenarioSpec) -> ScenarioResult:
    n, k = spec.n, spec.k
    report = _base_report(
        spec, "round-trip exact; addition count within the quadratic budget")
    start = time.perf_counter()
    matrix = recovery.build_matrix(n, k)
    rng = random.Random(spec.seed)
    bids = [rng.randrange(1, k + 1) for _ in range(n)]
    flat = [bit for price in bids for bit in encode_bid(price, k)]
    image = recovery.apply_f(matrix, flat)
    solved = recovery.recover_bids(image, n, k)
    elapsed = time.perf_counter() - start
    budget = n * n * k * k
    ok = list(solved.b) == flat and solved.additions <= budget
    report["success"] = ok
    report["expectation_met"] = ok
    report["outcome"].update({
        "n": n,
        "k": k,
        "additions": solved.additions,
        "budget": budget,
        "ratio": solved.additions / budget,
        "round_trip_exact": list(solved.b) == flat,
    })
    return ScenarioResult(report, ok, timing={"elapsed_seconds": elapsed})


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


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    if spec.scenario not in _RUNNERS:
        raise UsageError(f"--scenario must be one of: {', '.join(SCENARIOS)}")
    try:
        return _RUNNERS[spec.scenario](spec)
    finally:
        spec.resolved_params()._drop_tables()   # not every runner reaches AuctionRun.run


def emit_report(result: ScenarioResult, out_dir: Path) -> list[Path]:
    """Write report.json (and transcript.json when a board exists).
    Identical seeds produce identical bytes."""
    paths = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "report.json"
        report_path.write_text(json.dumps(result.report, indent=2) + "\n")
        paths.append(report_path)
        if result.board_json is not None:
            transcript_path = out_dir / "transcript.json"
            transcript_path.write_text(
                json.dumps(result.board_json, indent=2) + "\n")
            paths.append(transcript_path)
    except OSError as exc:
        raise IoError(f"could not write reports under {out_dir}: {exc}") from exc
    return paths
