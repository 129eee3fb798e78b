"""Protocol laboratory for a fully private sealed-bid auction.

Distributed ElGamal keys, per-cell bid encryptions with validity proofs,
homomorphic outcome masking, threshold decryption — plus working
implementations of the attacks that break the original design and the
defenses that stop them, all at desk scale.
"""

from .board import BulletinBoard, Post, canonical_bytes
from .defenses import AuthRegistry, DefenseFlags
from .elgamal import (
    Ciphertext,
    KeyShare,
    aggregate_keys,
    combine_decrypt,
    encrypt,
    gen_keyshare,
    partial_decrypt,
)
from .errors import (
    AuctionLabError,
    AuthRejected,
    ModeMismatch,
    NotAPower,
    ProofRejected,
    RestartRequired,
    UsageError,
)
from .groups import (
    DEFAULT_MARKER,
    GROUPS_BY_NAME,
    LARGE_GROUP,
    MID_GROUP,
    SMALL_GROUP,
    GroupParams,
    validate_group,
)
from .protocol import (
    AuctionConfig,
    AuctionOutcome,
    AuctionRun,
    BidderAgent,
    SellerAgent,
    encode_bid,
    expected_winner,
    run_auction,
    run_with_restarts,
)
from .recovery import (
    StructuredMatrix,
    apply_f,
    build_matrix,
    count_operations,
    exponent_from_power,
    invert_outcome_map,
    recover_bids,
)
from .scenarios import SCENARIOS, ScenarioSpec, run_scenario

__version__ = "0.1.0"

__all__ = [
    "AuctionConfig",
    "AuctionLabError",
    "AuctionOutcome",
    "AuctionRun",
    "AuthRegistry",
    "AuthRejected",
    "BidderAgent",
    "BulletinBoard",
    "Ciphertext",
    "DEFAULT_MARKER",
    "DefenseFlags",
    "GROUPS_BY_NAME",
    "GroupParams",
    "KeyShare",
    "LARGE_GROUP",
    "MID_GROUP",
    "ModeMismatch",
    "NotAPower",
    "Post",
    "ProofRejected",
    "RestartRequired",
    "SCENARIOS",
    "SMALL_GROUP",
    "ScenarioSpec",
    "SellerAgent",
    "StructuredMatrix",
    "UsageError",
    "aggregate_keys",
    "apply_f",
    "build_matrix",
    "canonical_bytes",
    "combine_decrypt",
    "count_operations",
    "encode_bid",
    "encrypt",
    "expected_winner",
    "exponent_from_power",
    "gen_keyshare",
    "invert_outcome_map",
    "partial_decrypt",
    "recover_bids",
    "run_auction",
    "run_scenario",
    "run_with_restarts",
    "validate_group",
]
