"""The benchmark's workloads: how each operation's inputs come from the
workload seed, what the timed call is, and how its output is checked.

An operation is an ``Op``: ``call()`` is the only part that is timed, and
``check(output)`` returns the list of problems (empty when correct) plus the
canonical payload bytes on the operation's final board.  Operations come in
rounds; round ``r`` of seed ``s`` is always the same list of inputs.
"""

from __future__ import annotations

import importlib
import json
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import checks

MODULES = ("errors", "groups", "elgamal", "sigma", "board", "defenses",
           "protocol", "recovery", "attacks", "scenarios", "cli")


def load_lab() -> SimpleNamespace:
    """Import auctionlab afresh (dropping any earlier import) and return its
    modules, plus the original canonical_bytes for measuring board bytes."""
    for name in [m for m in sys.modules if m == "auctionlab" or m.startswith("auctionlab.")]:
        del sys.modules[name]
    lab = SimpleNamespace(package=importlib.import_module("auctionlab"))
    for name in MODULES:
        setattr(lab, name, importlib.import_module(f"auctionlab.{name}"))
    lab.modules = [lab.package] + [getattr(lab, name) for name in MODULES]
    lab.canonical_bytes = lab.board.canonical_bytes
    return lab


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[list[str], int]]


def _rng(name: str, seed, index) -> random.Random:
    return random.Random(f"{name}:{seed}:{index}")


# --------------------------------------------------------------------------
# Honest auctions: one operation is one protocol.run_with_restarts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HonestWorkload:
    name: str
    group: str
    n: int
    k: int
    all_defenses: bool
    round_size: int

    def make_round(self, lab, seed, index: int, workdir: Path) -> list[Op]:
        rng = _rng(self.name, seed, index)
        return [self._op(lab, [rng.randint(1, self.k) for _ in range(self.n)],
                         rng.randrange(1 << 31))
                for _ in range(self.round_size)]

    def _op(self, lab, bids: list[int], seed: int) -> Op:
        params = lab.groups.GROUPS_BY_NAME[self.group]
        marker = lab.groups.DEFAULT_MARKER[self.group]
        flags = (lab.defenses.DefenseFlags.all_on() if self.all_defenses
                 else lab.defenses.DefenseFlags())
        config = lab.protocol.AuctionConfig(n=self.n, k=self.k, params=params,
                                            marker=marker, flags=flags)
        n, k, p, q = self.n, self.k, params.p, params.q

        def call():
            return lab.protocol.run_with_restarts(config, bids, seed)

        def check(result):
            run, outcome, _ = result
            agents = list(run.agents.values())
            sums = [[sum(a.m[i][j] for a in agents) % q for j in range(k)]
                    for i in range(n)]
            problems = checks.check_honest(
                p, q, marker, bids, k, sums, outcome.v, outcome.status,
                (outcome.winner_bidder, outcome.winner_price))
            size = sum(len(lab.canonical_bytes(post.payload))
                       for post in run.board.posts)
            return problems, size

        return Op(f"{self.name} bids={bids} seed={seed}", call, check)


# --------------------------------------------------------------------------
# Attacks: one operation is one scenarios.run_scenario plus emit_report
# --------------------------------------------------------------------------

# label, scenario, defense flags, scenario arguments, verdict to check, and
# the expected (error type, round) for the blocked runs.
ATTACK_SET = (
    ("privacy", "full-privacy-attack", {}, {"exponent": 1}, "recover", None),
    ("privacy-exp5", "full-privacy-attack", {}, {"exponent": 5}, "recover", None),
    ("privacy-ni", "full-privacy-attack", {"ni_proofs": True}, {},
     "blocked", ("ProofRejected", "outcome")),
    ("privacy-npc", "full-privacy-attack", {"noise_product_check": True},
     {"exponent": 1}, "blocked", ("RestartRequired", "outcome")),
    ("forged-eqdl", "forged-eqdl", {}, {}, "forge", None),
    ("forged-eqdl-ni", "forged-eqdl", {"ni_proofs": True}, {},
     "blocked", ("ProofRejected", "outcome")),
    ("impersonation", "impersonation", {}, {}, "reveal", None),
    ("impersonation-rerand", "impersonation", {}, {"rerandomize": True},
     "reveal", None),
    ("impersonation-auth", "impersonation", {"authenticate": True}, {},
     "blocked", ("AuthRejected", "bid")),
    ("exceptional", "exceptional-values", {}, {}, "force", None),
    ("exceptional-npc", "exceptional-values", {"noise_product_check": True}, {},
     "redraw", None),
    ("wrong-key-kc", "wrong-key", {"key_consistency": True}, {},
     "blocked", ("ProofRejected", "decrypt")),
    ("mitm", "mitm-demo", {}, {}, "relay", None),
    ("mitm-ni", "mitm-demo", {"ni_proofs": True}, {},
     "blocked", ("ModeMismatch", None)),
)


@dataclass(frozen=True)
class AttackWorkload:
    name: str
    group: str
    n: int
    k: int

    @property
    def round_size(self) -> int:
        return len(ATTACK_SET)

    def make_round(self, lab, seed, index: int, workdir: Path) -> list[Op]:
        """One pass over the attack set, every input drawn from the seed."""
        rng = _rng(self.name, seed, index)
        params = lab.groups.GROUPS_BY_NAME[self.group]
        ops = []
        for label, scenario, flags, extra, verdict, blocked in ATTACK_SET:
            bids = [rng.randint(1, self.k) for _ in range(self.n)]
            losing = [(i + 1, j + 1)
                      for i, row in enumerate(checks.cell_counts(bids, self.k))
                      for j, count in enumerate(row) if count > 0]
            args = dict(extra, bids=bids, seed=rng.randrange(1 << 31),
                        target_bid=rng.randint(1, self.k), cell=rng.choice(losing),
                        claim=(rng.randrange(1, params.q), rng.randrange(1, params.q),
                               rng.choice((-1, 1)) * rng.randrange(1, params.q)))
            expect = {"bids": bids, "target_bid": args["target_bid"],
                      "cell": args["cell"], "claim": args["claim"], "mallory": self.n}
            if blocked is not None:
                expect["error"], expect["round"] = blocked
            ops.append(self._op(lab, label, scenario, flags, args, verdict, expect,
                                params, workdir))
        return ops

    def _op(self, lab, label, scenario, flags, args, verdict, expect, params,
            workdir: Path) -> Op:
        group = {"p": params.p, "q": params.q, "g": params.g}

        def call():
            # A fresh spec per call: scenarios append notes to the one they get.
            spec = lab.scenarios.ScenarioSpec(
                scenario=scenario, n=self.n, k=self.k, group_name=self.group,
                flags=lab.defenses.DefenseFlags(**flags), **args)
            result = lab.scenarios.run_scenario(spec)
            out_dir = Path(tempfile.mkdtemp(dir=workdir))
            lab.scenarios.emit_report(result, out_dir)
            return out_dir

        def check(out_dir: Path):
            try:
                report = json.loads((out_dir / "report.json").read_text())
                path = out_dir / "transcript.json"
                transcript = json.loads(path.read_text()) if path.exists() else None
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            problems = checks.check_attack(verdict, expect, report, transcript, group)
            return problems, checks.transcript_bytes(transcript)

        return Op(f"{label} bids={args['bids']} seed={args['seed']}", call, check)


WORKLOADS = {
    "honest-mid-defended": HonestWorkload("honest-mid-defended", "mid", 8, 16,
                                          all_defenses=True, round_size=8),
    "honest-large-interactive": HonestWorkload("honest-large-interactive", "large",
                                               4, 8, all_defenses=False,
                                               round_size=2),
    "attacks-mid": AttackWorkload("attacks-mid", "mid", 8, 16),
}
