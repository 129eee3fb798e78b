"""Count outcome-base calls on the ROADMAP's reference runs, through the
benchmark's tracer.

    python3 perfbench/reference.py

Each reference run is one ``protocol.run_auction`` in the mid group with
n=8, k=16, seed 3 and bids 1..n.  The ROADMAP baseline recorded 9 472
``compute_outcome_bases`` calls with all defenses on and 15 360 with
interactive proofs; a change to the outcome-round algebra is meant to lower
both, so this prints the counts anew next to the recorded figures.
"""

from __future__ import annotations

import sys

import run
import tracer as tracer_mod
import workloads

REFERENCE = (
    # label, all defenses on, calls recorded in the ROADMAP baseline
    ("mid, all defenses, n=8, k=16", True, 9472),
    ("mid, interactive, n=8, k=16", False, 15360),
)


def reference_counts(lab, all_defenses: bool, n: int = 8, k: int = 16,
                     seed: int = 3) -> dict[str, float]:
    """Per-layer metrics of one traced reference run."""
    flags = (lab.defenses.DefenseFlags.all_on() if all_defenses
             else lab.defenses.DefenseFlags())
    config = lab.protocol.AuctionConfig(n=n, k=k, params=lab.groups.MID_GROUP,
                                        marker=lab.groups.DEFAULT_MARKER["mid"],
                                        flags=flags)
    tracer = tracer_mod.Tracer(lab.canonical_bytes)
    uninstall = tracer_mod.install(tracer, lab)
    try:
        with tracer.op():
            lab.protocol.run_auction(config, list(range(1, n + 1)), seed)
    finally:
        uninstall()
    return tracer.metrics()


def main() -> int:
    run._import_program()
    lab = workloads.load_lab()
    for label, all_defenses, recorded in REFERENCE:
        metrics = reference_counts(lab, all_defenses)
        calls = int(metrics["protocol.outcome_base_calls"])
        print(f"{label}: {calls} outcome-base calls (ROADMAP baseline {recorded}), "
              f"{int(metrics['groups.exp_calls'])} modexps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
