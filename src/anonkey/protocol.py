"""Anonymous-key encryption sessions: state machines for Adam and Babe.

One session runs the four protocol steps: Adam sends random ring states
(enough to cover loss and the code rate); Babe encodes her raw bits through
the classical code, modulates each surviving qubit a quarter-turn up or down
the circle, and returns the stream in secret per-block orders (two secret
bits select one of four overlap-free arrangements per 8-qubit block); Adam
restores the order, measures each return in the orthogonal basis formed by
his own state rotated a quarter-turn each way, decodes, and both sides hash
the 8k sifted bits down to a 4k key; a trial encryption of a fixed public
plaintext catches disagreement.

The per-qubit quantum mechanics is exact: all measurement and interception
probabilities are tabulated once per ``M`` by :func:`anonkey.detection.ring_tables`
from the density-operator algebra, then sessions sample from those tables,
which keeps thousand-session experiments cheap without approximating
anything.  The channel is sampled the same way: :func:`run_ake_session` draws
the :class:`ChannelModel` loss and depolarization of every qubit at once, and a
depolarized qubit reads as a fair coin at Adam's measurement.

Adversaries
-----------
``eve_strategy`` selects the attack run inside the session:

* ``"none"`` - honest channel.
* ``"opaque"`` - intercept-resend: Eve measures every outgoing qubit with
  the optimal ring detector and forwards her estimate.  Adam's raw bit error
  settles at 1 - 3/4 = 1/4.
* ``"impersonate-order"`` - Eve answers in Babe's place with her own bits,
  guessing each block's secret order (right with probability 1/4); wrongly
  ordered blocks hand Adam a coin-flip per qubit.
* ``"translucent"`` - a non-disturbing tap of both legs, scored by the
  loose information bound (deterministic bits for order-guessed blocks,
  channel-capacity bits elsewhere).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import coding
from .adversary import AttackReport, binary_entropy, impersonation_order_pmf, opaque_bound
from .detection import ring_tables
from .detection import square_root_measurement  # noqa: F401 - benchmarks/tracing.py patches it here
from .harness import canonical_json
from .states import require_ring_size
from .states import uniform_circle_ensemble  # noqa: F401 - benchmarks/tracing.py patches it here

EVE_STRATEGIES = ("none", "opaque", "impersonate-order", "translucent")

#: The four return orders, written as the source slot for each stream
#: position (1-based digits, as conventionally quoted).
ORDER_STRINGS = ("12345678", "87654321", "38462715", "41236587")
ORDER_TABLE = np.array([[int(c) - 1 for c in s] for s in ORDER_STRINGS])
INVERSE_ORDER_TABLE = np.argsort(ORDER_TABLE, axis=1)
BLOCK_SIZE = 8

#: Fixed public plaintext for the trial encryption (hex digits of pi).
TRIAL_PLAINTEXT = np.array(
    [int(b) for b in bin(0x243F6A8885A308D3)[2:].zfill(64)], dtype=np.uint8
)


def _reorder(block, order_id: int, table: np.ndarray):
    if not 0 <= order_id <= 3:
        raise ValueError("order_id must be in 0..3")
    items = list(block)
    if len(items) != BLOCK_SIZE:
        raise ValueError(f"block must have {BLOCK_SIZE} items, got {len(items)}")
    return type(block)(items[i] for i in table[order_id])


def order_permute(block, order_id: int):
    """Arrange an 8-item block into transmission order ``order_id``."""
    return _reorder(block, order_id, ORDER_TABLE)


def order_unpermute(block, order_id: int):
    """Invert :func:`order_permute` for the same ``order_id``."""
    return _reorder(block, order_id, INVERSE_ORDER_TABLE)


@dataclass(frozen=True)
class ChannelModel:
    """Per-qubit loss and depolarization, applied once per round trip."""

    loss_prob: float = 0.0
    depolarize_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss_prob", "depolarize_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class SessionConfig:
    """Everything one key-distribution session depends on.

    ``k`` counts 8-qubit data blocks: the session distills a 4k-bit key from
    8k sifted bits.  Identical configs (seeds included) produce bit-identical
    transcripts.
    """

    k: int
    M: int = 4
    channel: ChannelModel = field(default_factory=ChannelModel)
    cecc: str = "hamming74"
    pa_hash_seed: int = 0
    rng_seed: int = 0
    eve_strategy: str = "none"
    send_margin: float = 0.25

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        require_ring_size(self.M)
        if self.cecc not in coding.CODES:
            raise ValueError(f"unknown cecc {self.cecc!r}; choose from {coding.CODES}")
        if self.eve_strategy not in EVE_STRATEGIES:
            raise ValueError(
                f"unknown eve_strategy {self.eve_strategy!r}; choose from {EVE_STRATEGIES}"
            )
        if self.send_margin < 0.0:
            raise ValueError("send_margin must be nonnegative")


@dataclass
class SessionTranscript:
    """Full record of one session; serializes to a stable JSON shape.

    ``states_sent`` holds ring indices 0..M-1 (index 0 is the reference
    state).  ``raw_bits_babe`` / ``final_key_babe`` belong to whoever
    answered Adam: the honest responder normally, Eve under the
    impersonation strategy (``eve_report["strategy"]`` says which).  An
    aborted session sets ``aborted``, ``abort_reason`` and the fields
    without defaults; the rest keep their empty defaults.
    """

    config: dict
    states_sent: list
    eve_report: dict
    aborted: bool = False
    abort_reason: str | None = None
    orders_used: list = field(default_factory=list)
    expended_order_bits: int = 0
    raw_bits_babe: list = field(default_factory=list)
    raw_bits_adam: list = field(default_factory=list)
    final_key_adam: list = field(default_factory=list)
    final_key_babe: list = field(default_factory=list)
    trial_check_passed: bool = False
    corrected_blocks: int = 0

    def to_json(self) -> str:
        """``json.dumps(asdict(self), sort_keys=True, indent=2)``, without the deep copy.

        ``config`` and ``eve_report`` are already plain dicts, so a shallow
        field dict serializes to the same bytes.
        """
        return canonical_json({f.name: getattr(self, f.name) for f in fields(self)})


def run_ake_session(cfg: SessionConfig) -> SessionTranscript:
    """Run one full key-distribution session.

    Insufficient surviving qubits produce an aborted transcript, not an
    exception.  All randomness flows from ``cfg.rng_seed`` in a fixed draw
    order, so equal configs give byte-identical transcripts.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    tables = ring_tables(cfg.M)
    M, q = cfg.M, tables.q

    n_raw = 8 * cfg.k
    n_coded = round(n_raw / coding.code_rate(cfg.cecc))
    n_blocks = math.ceil(n_coded / BLOCK_SIZE)
    n_slots = BLOCK_SIZE * n_blocks
    n_pad = n_slots - n_coded
    n_sent = math.ceil(n_slots * (1.0 + cfg.send_margin))

    # step (i): Adam transmits random ring states
    sent = rng.integers(0, M, size=n_sent)

    # channel, one application per qubit round trip
    lost = rng.random(n_sent) < cfg.channel.loss_prob
    depolarized = rng.random(n_sent) < cfg.channel.depolarize_prob
    depolarized &= ~lost

    # opaque interception happens on the way out: Eve measures the optimal
    # ring detector and forwards her estimate
    eve_offsets = None
    if cfg.eve_strategy == "opaque":
        eve_offsets = rng.choice(M, size=n_sent, p=tables.srm)
        carried = (sent + eve_offsets) % M
    else:
        carried = sent

    arrived = np.flatnonzero(~lost)
    if len(arrived) < n_slots:
        return SessionTranscript(
            config=asdict(cfg),
            states_sent=sent.tolist(),
            eve_report=asdict(AttackReport(strategy=cfg.eve_strategy)),
            aborted=True,
            abort_reason=f"only {len(arrived)} of {n_slots} needed qubits survived the channel",
        )
    used = arrived[:n_slots]  # publicly acknowledged fill order

    # step (ii): the responder's data, coding, modulation, secret orders
    counterpart_raw = rng.integers(0, 2, size=n_raw, dtype=np.uint8)
    coded = coding.cecc_encode(counterpart_raw, cfg.cecc)
    pad = rng.integers(0, 2, size=n_pad, dtype=np.uint8)
    slot_bits = np.concatenate([coded, pad])

    src = carried[used]
    src_dep = depolarized[used]
    # bit 0 rotates +M/4 steps along the ring, bit 1 rotates -M/4
    returned = (src + q * (1 - 2 * slot_bits.astype(np.int64))) % M

    orders = rng.integers(0, 4, size=n_blocks)

    if cfg.eve_strategy == "impersonate-order":
        guesses = rng.integers(0, 4, size=n_blocks)
        # Adam restores with the true order; Eve packed with her guess.  The
        # slot he reads at position s actually holds slot sigma[s] of the
        # block, and the four orders never agree at any position, so a wrong
        # guess misplaces every qubit of the block.
        sigma = np.take_along_axis(ORDER_TABLE[guesses], INVERSE_ORDER_TABLE[orders], axis=1)
        sigma = (sigma + BLOCK_SIZE * np.arange(n_blocks)[:, None]).reshape(-1)
    else:
        sigma = np.arange(n_slots)

    # step (iii): Adam restores order and measures his quarter-turn basis
    expected = sent[used]
    actual = returned[sigma]
    actual_dep = src_dep[sigma]
    p0 = tables.decrypt_p0[(actual - expected) % M]
    p0 = np.where(actual_dep, 0.5, p0)
    adam_coded = (rng.random(n_slots) >= p0).astype(np.uint8)
    adam_raw, corrected = coding.cecc_decode(adam_coded[:n_coded], cfg.cecc)

    # privacy amplification of the 8k sifted bits down to 4k
    out_len = 4 * cfg.k
    key_adam, key_counterpart = coding.privacy_amplify(
        np.stack([adam_raw, counterpart_raw]), cfg.pa_hash_seed, out_len
    )

    # step (iv): trial encryption of the fixed public plaintext
    t = min(len(TRIAL_PLAINTEXT), out_len)
    tag = key_counterpart[:t] ^ TRIAL_PLAINTEXT[:t]
    trial_ok = bool(np.array_equal(key_adam[:t] ^ tag, TRIAL_PLAINTEXT[:t]))

    if cfg.eve_strategy == "opaque":
        hits = eve_offsets[used] == 0
        pre_code_err = float(np.mean(adam_coded[:n_coded] != coded))
        eve_report = asdict(
            AttackReport(strategy="opaque", per_qubit_success=float(np.mean(hits)))
        )
        eve_report.update(adam_coded_bit_error_rate=pre_code_err, intercepted_qubits=n_sent)
    elif cfg.eve_strategy == "impersonate-order":
        right = guesses == orders
        wrong_slots = np.repeat(~right, BLOCK_SIZE)
        coded_slots_mask = np.arange(n_slots) < n_coded
        wrong_errs = int(np.sum((adam_coded != slot_bits) & wrong_slots & coded_slots_mask))
        eve_report = asdict(
            AttackReport(
                strategy="impersonate-order",
                per_qubit_success=float(np.mean(adam_coded[:n_coded] == coded)),
                order_guess_distribution=tuple(impersonation_order_pmf(n_blocks).tolist()),
            )
        )
        eve_report.update(
            blocks_guessed_right=int(np.sum(right)),
            blocks_total=n_blocks,
            wrong_block_qubits=int(np.sum(wrong_slots & coded_slots_mask)),
            wrong_block_errors=wrong_errs,
        )
    elif cfg.eve_strategy == "translucent":
        # non-disturbing tap, scored by the loose bound: order-guessed
        # blocks leak their bits outright, the rest leak at the capacity of
        # a binary channel with the two-copy success rate
        pa = opaque_bound(M)
        guessed = rng.random(n_blocks) < 0.25
        det_bits = int(np.sum(guessed) * BLOCK_SIZE)
        other = int(n_slots - det_bits)
        eve_report = asdict(
            AttackReport(
                strategy="translucent",
                per_qubit_success=pa,
                deterministic_bits=det_bits,
                shannon_bits=float(other * (1.0 - binary_entropy(pa))),
            )
        )
        eve_report.update(blocks_guessed_right=int(np.sum(guessed)))
    else:
        eve_report = asdict(AttackReport(strategy="none"))

    return SessionTranscript(
        config=asdict(cfg),
        states_sent=sent.tolist(),
        eve_report=eve_report,
        orders_used=orders.tolist(),
        expended_order_bits=2 * n_blocks,
        raw_bits_babe=counterpart_raw.tolist(),
        raw_bits_adam=adam_raw.tolist(),
        final_key_adam=key_adam.tolist(),
        final_key_babe=key_counterpart.tolist(),
        trial_check_passed=trial_ok,
        corrected_blocks=corrected,
    )
