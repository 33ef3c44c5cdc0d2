"""Anonymous-key encryption sessions: state machines for Adam and Babe.

One session runs the four protocol steps: Adam sends random ring states
(the code's slots plus a quarter for loss); Babe encodes her raw bits through
the classical code, modulates each surviving qubit a quarter-turn up or down
the circle, and returns the stream in secret per-block orders (two secret
bits select one of four overlap-free arrangements per 8-qubit block); Adam
restores the order, measures each return in the orthogonal basis formed by
his own state rotated a quarter-turn each way, decodes, and both sides hash
the 8k sifted bits down to a 4k key; a trial encryption of a fixed public
plaintext catches disagreement.  The hash is linear over GF(2), so the core
hashes the bits' XOR where they differ, and the keys only for a transcript.

The per-qubit quantum mechanics is exact: all measurement and interception
probabilities come once per ``M`` from :func:`anonkey.detection.ring_tables`,
closed forms that the tests check against the density-operator algebra, then
sessions sample from those tables, which keeps thousand-session experiments
cheap without approximating anything.  The :class:`ChannelModel` loss and
depolarization are sampled per qubit the same way, and a depolarized qubit
reads as a fair coin at Adam's measurement.

One core runs every session: :func:`run_ake_sessions` takes a run's one
:class:`SessionConfig` and a seed per session.  Each session draws its whole
fixed sequence on its own generator, seeded with its seed, aborted or not: no
other session reads it, so a finished session's draws are unchanged and every
session costs the same.  Later steps are one pass over ``(sessions, qubits)``
arrays, one row per session and aborted results masked, in memory-bounded
chunks held by :class:`SessionBatch`, which builds a :class:`SessionTranscript`
only when asked.  :func:`run_ake_session` is its one-session call.  The privacy
amplification hash is a public per-session choice fixed by the seed: a
transcript's ``config`` records the seed as ``rng_seed`` and the hash seed,
``pa_hash_seed = rng_seed XOR 0x5DEECE66D``.

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
* ``"translucent"`` - a non-disturbing tap of both legs, scored by a
  binary-channel information figure (deterministic bits for order-guessed
  blocks, ``1 - h(pa)`` a qubit elsewhere): not a bound on what the tap learns.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from . import coding
from .adversary import binary_entropy, impersonation_order_pmf, opaque_bound
from .detection import ring_tables
from .detection import square_root_measurement  # noqa: F401 - benchmarks/tracing.py patches it here
from .harness import canonical_json, is_integer, require_probability, require_seed
from .states import require_ring_size
from .states import uniform_circle_ensemble  # noqa: F401 - benchmarks/tracing.py patches it here

EVE_STRATEGIES = ("none", "opaque", "impersonate-order", "translucent")

#: The four return orders, written as the source slot for each stream
#: position (1-based digits, as conventionally quoted).
ORDER_STRINGS = ("12345678", "87654321", "38462715", "41236587")
ORDER_TABLE = np.array([[int(c) - 1 for c in s] for s in ORDER_STRINGS])
INVERSE_ORDER_TABLE = np.argsort(ORDER_TABLE, axis=1)
BLOCK_SIZE = 8
SEND_MARGIN = 0.25  # qubits sent beyond the block slots, as a fraction of them
PA_SEED_XOR = 0x5DEECE66D  # a session's hash seed is its seed XOR this

#: Fixed public plaintext for the trial encryption (hex digits of pi).
TRIAL_PLAINTEXT = np.array(
    [int(b) for b in bin(0x243F6A8885A308D3)[2:].zfill(64)], dtype=np.uint8
)


@dataclass(frozen=True)
class ChannelModel:
    """Per-qubit loss and depolarization, applied once per round trip."""

    loss_prob: float = 0.0
    depolarize_prob: float = 0.0

    def __post_init__(self) -> None:
        require_probability("loss_prob", self.loss_prob)
        require_probability("depolarize_prob", self.depolarize_prob)
        # numpy scalars pass the rules; plain floats serialize to JSON
        object.__setattr__(self, "loss_prob", float(self.loss_prob))
        object.__setattr__(self, "depolarize_prob", float(self.depolarize_prob))


@dataclass(frozen=True)
class SessionConfig:
    """Everything one key-distribution session depends on.

    ``k`` counts 8-qubit data blocks: the session distills a 4k-bit key from
    8k sifted bits.  Seeds are not part of it: identical configs run with
    the same seed produce bit-identical transcripts.
    """

    k: int
    M: int = 4
    channel: ChannelModel = field(default_factory=ChannelModel)
    cecc: str = "hamming74"
    eve_strategy: str = "none"

    def __post_init__(self) -> None:
        require_block_count(self.k)
        require_ring_size(self.M)
        # numpy integers pass the rules; plain ints serialize to JSON
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "M", int(self.M))
        coding.require_code(self.cecc)
        if not isinstance(self.channel, ChannelModel):
            raise ValueError(f"channel must be a ChannelModel, got {self.channel!r}")
        if self.eve_strategy not in EVE_STRATEGIES:
            raise ValueError(
                f"unknown eve_strategy {self.eve_strategy!r}; choose from {EVE_STRATEGIES}"
            )


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


#: Qubits sent per array pass; longer runs go through in chunks of sessions.
#: Each qubit costs some tens of bytes of arrays along the pass.
_SLOT_BUDGET = 1 << 14
#: Data blocks of one session, at most: a session of k blocks peaks near 1.9 KB
#: per block (252 MB at this bound), since it is never split across passes.
MAX_K = 1 << 17


def require_block_count(k: int) -> None:
    """Raise unless the block count ``k`` is an integer in ``[1, MAX_K]``."""
    if not (is_integer(k) and 1 <= k <= MAX_K):
        raise ValueError(f"k must be an integer in [1, 2**17], got {k!r}")


@dataclass
class SessionBatch:
    """Consecutive sessions of one run, held as arrays: the run's ``cfg`` and
    the sessions' ``seeds``, one per session.

    Every array holds one row per session, aborted or not: ``columns`` (the
    result columns, masked where ``aborted``), ``bits`` (the transcript's bit
    lists but the keys), ``mismatch`` (Adam's key XOR Babe's, 0 if aborted) and
    ``eve_stats``' arrays; ``keys`` hashes the batch once, at its first transcript.
    ``hash_seeds`` holds each session's privacy amplification seed.
    """

    cfg: SessionConfig
    seeds: list
    hash_seeds: list
    states_sent: np.ndarray
    arrived: np.ndarray
    columns: dict
    bits: dict
    mismatch: np.ndarray
    eve_stats: dict

    @cached_property
    def keys(self) -> dict:
        """Both parties' keys by transcript field, Babe's hashed in one call when first asked."""
        babe = coding.privacy_amplify(self.bits["raw_bits_babe"], self.hash_seeds,
                                      self.mismatch.shape[1])
        return dict(final_key_adam=babe ^ self.mismatch, final_key_babe=babe)

    def rows(self) -> list[dict]:
        """Each session's result columns, as plain Python values."""
        values = zip(*(c.tolist() for c in self.columns.values()))
        return [dict(zip(self.columns, v)) for v in values]

    def transcript(self, i: int) -> SessionTranscript:
        """Session ``i``'s transcript, built from the arrays."""
        cfg, seed = self.cfg, self.seeds[i]
        report = dict(strategy=cfg.eve_strategy, per_qubit_success=0.0, deterministic_bits=0,
                      shannon_bits=0.0, order_guess_distribution=())
        # transcripts record the seeds and the margin beside the config
        config = dict(asdict(cfg), rng_seed=seed, pa_hash_seed=self.hash_seeds[i],
                      send_margin=SEND_MARGIN)
        head = dict(config=config, states_sent=self.states_sent[i].tolist(), eve_report=report)
        if self.columns["aborted"][i]:
            need = _layout(cfg)[3]
            reason = f"only {self.arrived[i]} of {need} needed qubits survived the channel"
            return SessionTranscript(**head, aborted=True, abort_reason=reason)
        report.update((key, v[i].item() if isinstance(v, np.ndarray) else v)
                      for key, v in self.eve_stats.items())
        scalars = ("expended_order_bits", "trial_check_passed", "corrected_blocks")
        bits = self.bits | self.keys
        return SessionTranscript(**head, **{name: self.columns[name][i].item() for name in scalars},
                                 **{name: rows[i].tolist() for name, rows in bits.items()})

    def transcripts(self) -> Iterator[SessionTranscript]:
        return (self.transcript(i) for i in range(len(self.seeds)))


def run_ake_session(cfg: SessionConfig, seed: int) -> SessionTranscript:
    """Run one full key-distribution session: :func:`run_ake_sessions` of one.

    Insufficient surviving qubits produce an aborted transcript, not an
    exception.  All randomness flows from ``seed`` in a fixed draw order, so
    an equal config and seed give byte-identical transcripts.
    """
    (batch,) = run_ake_sessions(cfg, [seed])
    return batch.transcript(0)


def run_ake_sessions(cfg: SessionConfig, seeds: Iterable[int]) -> Iterator[SessionBatch]:
    """Run one session of ``cfg`` per seed, in array passes.

    Yields a :class:`SessionBatch` per chunk of consecutive sessions holding
    at most ``_SLOT_BUDGET`` sent qubits (or one session), so memory stays
    bounded.  No session depends on the others or on the chunking.
    """
    seeds = list(seeds)
    for seed in seeds:
        require_seed("seed", seed)
    seeds = [int(seed) for seed in seeds]  # numpy integers pass the rule; ints serialize to JSON
    step = max(1, _SLOT_BUDGET // _layout(cfg)[4])
    for start in range(0, len(seeds), step):
        yield _run_batch(cfg, seeds[start : start + step])


def _layout(cfg: SessionConfig) -> tuple[int, int, int, int, int]:
    """Raw bits, coded bits, 8-qubit blocks, block slots and qubits sent."""
    n_raw = 8 * cfg.k
    n_coded = round(n_raw / coding.code_rate(cfg.cecc))
    n_blocks = math.ceil(n_coded / BLOCK_SIZE)
    n_slots = BLOCK_SIZE * n_blocks
    return n_raw, n_coded, n_blocks, n_slots, math.ceil(n_slots * (1.0 + SEND_MARGIN))


def _run_batch(cfg: SessionConfig, seeds: list[int]) -> SessionBatch:
    S = len(seeds)
    M, eve, channel, tables = cfg.M, cfg.eve_strategy, cfg.channel, ring_tables(cfg.M)
    n_raw, n_coded, n_blocks, n_slots, n_sent = _layout(cfg)

    # Every draw, session by session on its own generator in the fixed order;
    # a session that aborts at the loss check draws on too (no other session
    # reads its generator), so every array has one row per session.
    sent, u, u_eve = np.empty((S, n_sent), dtype=np.int64), np.empty(n_sent), np.empty((S, n_sent))
    kept, depolarized = np.empty((2, S, n_sent), dtype=bool)  # u thresholded session by session
    data = np.empty((S, n_raw + n_slots - n_coded), dtype=np.uint8)
    raw, pad = data[:, :n_raw], data[:, n_raw:]
    orders, guesses = np.empty((2, S, n_blocks), dtype=np.int64)
    u_adam, u_tap = np.empty((S, n_slots)), np.empty((S, n_blocks))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        # step (i): Adam transmits random ring states; the channel acts once
        # per qubit round trip
        sent[i] = rng.integers(0, M, size=n_sent)
        np.greater_equal(rng.random(out=u), channel.loss_prob, out=kept[i])
        np.less(rng.random(out=u), channel.depolarize_prob, out=depolarized[i])
        if eve == "opaque":
            rng.random(out=u_eve[i])  # the uniforms of rng.choice(M, p=tables.srm)
        # step (ii): the responder's data and pad bits, one draw (a uint8 draw takes
        # a 32-bit word per four values: 8k data bits fill whole words), her orders
        data[i] = rng.integers(0, 2, size=data.shape[1], dtype=np.uint8)
        orders[i] = rng.integers(0, 4, size=n_blocks)
        if eve == "impersonate-order":
            guesses[i] = rng.integers(0, 4, size=n_blocks)
        rng.random(out=u_adam[i])  # Adam's measurement outcomes
        if eve == "translucent":
            rng.random(out=u_tap[i])
    arrived = np.count_nonzero(kept, axis=1)
    done = arrived >= n_slots

    # the first n_slots surviving qubits, in the publicly acknowledged fill
    # order, read row by row by boolean indexing (int32 counts: n_sent < 2**31);
    # an aborted session, whose results `done` masks, takes its first n_slots
    used = kept | ~done[:, None]
    used &= np.cumsum(used, axis=1, dtype=np.int32) <= n_slots
    dep = depolarized[used].reshape(S, n_slots)

    # the responder codes her bits and modulates each qubit: bit 0 rotates
    # +M/4 steps along the ring, bit 1 rotates -M/4; `steps` counts the ring
    # steps from the state Adam sent for a slot to the state he gets back
    coded = coding.cecc_encode(raw.reshape(-1), cfg.cecc).reshape(S, n_coded)
    slot_bits = np.concatenate([coded, pad], axis=1)
    steps = tables.q * (1 - 2 * slot_bits.astype(np.int64))
    if eve == "opaque":
        # Eve measures each outgoing qubit with the optimal ring detector, forwards her estimate
        eve_offsets = tables.cdf.searchsorted(u_eve[used], side="right").reshape(S, n_slots)
        steps += eve_offsets
    if eve == "impersonate-order":
        # Adam restores with the true order; Eve packed with her guess.  The
        # slot he reads at position s actually holds slot sigma[s] of the
        # block, and the four orders never agree at any position, so a wrong
        # guess misplaces every qubit of the block.
        sigma = np.take_along_axis(ORDER_TABLE[guesses], INVERSE_ORDER_TABLE[orders], axis=2)
        sigma = (sigma + BLOCK_SIZE * np.arange(n_blocks)[:, None]).reshape(S, n_slots)
        sent_used = sent[used].reshape(S, n_slots)
        steps = np.take_along_axis(sent_used + steps, sigma, axis=1) - sent_used
        dep = np.take_along_axis(dep, sigma, axis=1)

    # step (iii): Adam measures his quarter-turn basis and decodes; its bit-0
    # state is the sent one rotated +M/4 steps, so bit 0 reads with ov[steps - q]
    p0 = np.where(dep, 0.5, tables.ov[(steps - tables.q) % M])
    adam_coded = (u_adam >= p0).astype(np.uint8)
    adam_raw, corrected = coding.cecc_decode_rows(adam_coded[:, :n_coded], cfg.cecc)

    # privacy amplification of the 8k sifted bits down to 4k under each
    # session's hash seed: the Toeplitz hash H is linear over GF(2), so the keys
    # differ by H(adam_raw ^ raw), hashed only where finished sessions' bits differ
    hash_seeds = [seed ^ PA_SEED_XOR for seed in seeds]
    diff, mismatch = adam_raw ^ raw, np.zeros((S, 4 * cfg.k), dtype=np.uint8)
    if len(differ := np.flatnonzero(done & np.any(diff, axis=1))):
        mismatch[differ] = coding.privacy_amplify(diff[differ], [hash_seeds[i] for i in differ],
                                                  4 * cfg.k)

    # step (iv): trial encryption of the fixed public plaintext under Babe's
    # key; it decrypts under Adam's exactly when the keys agree on its bits
    trial_ok = ~np.any(mismatch[:, : len(TRIAL_PLAINTEXT)], axis=1)

    coded_ok = adam_coded[:, :n_coded] == coded
    eve_stats = {}
    if eve == "opaque":
        eve_stats = dict(per_qubit_success=np.count_nonzero(eve_offsets == 0, axis=1) / n_slots,
                         adam_coded_bit_error_rate=np.count_nonzero(~coded_ok, axis=1) / n_coded,
                         intercepted_qubits=n_sent)
    elif eve == "impersonate-order":
        right = guesses == orders
        wrong = np.repeat(~right, BLOCK_SIZE, axis=1)[:, :n_coded]
        eve_stats = dict(per_qubit_success=np.count_nonzero(coded_ok, axis=1) / n_coded,
                         order_guess_distribution=tuple(impersonation_order_pmf(n_blocks).tolist()),
                         blocks_guessed_right=np.count_nonzero(right, axis=1),
                         wrong_block_qubits=np.count_nonzero(wrong, axis=1), blocks_total=n_blocks,
                         wrong_block_errors=np.count_nonzero(wrong & ~coded_ok, axis=1))
    elif eve == "translucent":
        # non-disturbing tap, scored by the binary-channel figure: order-guessed blocks
        # leak their bits outright, the rest a binary channel's capacity at the
        # two-copy success rate (not a bound on what the tap learns)
        pa = opaque_bound(M)
        det = BLOCK_SIZE * np.count_nonzero(u_tap < 0.25, axis=1)
        eve_stats = dict(per_qubit_success=pa, deterministic_bits=det,
                         shannon_bits=(n_slots - det) * (1.0 - binary_entropy(pa)),
                         blocks_guessed_right=det // BLOCK_SIZE)

    # an aborted session has no key and no check: empty keys compare equal
    columns = dict(aborted=~done, trial_check_passed=done & trial_ok, key_bits=done * 4 * cfg.k,
                   keys_equal=~done | ~np.any(mismatch, axis=1),
                   corrected_blocks=done * corrected, expended_order_bits=done * 2 * n_blocks)
    bits = dict(orders_used=orders, raw_bits_babe=raw, raw_bits_adam=adam_raw)
    return SessionBatch(cfg, seeds, hash_seeds, sent, arrived, columns, bits, mismatch, eve_stats)
