"""Anonymous-key encryption sessions: state machines for Adam and Babe.

One session runs the four protocol steps: Adam sends random ring states
(the code's slots plus a quarter for loss); Babe encodes her raw bits through
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
anything.  The :class:`ChannelModel` loss and depolarization are sampled per
qubit the same way, and a depolarized qubit reads as a fair coin at Adam's
measurement.

One core runs every session: :func:`run_ake_sessions` takes a run's one
:class:`SessionConfig` and a seed per session.  Each session draws on its own
generator, seeded with its seed, in a fixed order; all later steps are one
pass over ``(sessions, qubits)`` arrays, in memory-bounded chunks held by
:class:`SessionBatch`, which builds a :class:`SessionTranscript` only when
asked.  :func:`run_ake_session` is its one-session call.  The privacy
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
* ``"translucent"`` - a non-disturbing tap of both legs, scored by the
  loose information bound (deterministic bits for order-guessed blocks,
  channel-capacity bits elsewhere).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field, fields

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

    ``columns`` holds one entry per session for each result column.  Aborted
    sessions stop at the loss check, so ``bits`` (the transcript's bit lists)
    and the array values of ``eve_stats`` hold one row per finished session.
    """

    cfg: SessionConfig
    seeds: list
    states_sent: np.ndarray
    arrived: np.ndarray
    columns: dict
    bits: dict
    eve_stats: dict

    def rows(self) -> list[dict]:
        """Each session's result columns, as plain Python values."""
        values = zip(*(c.tolist() for c in self.columns.values()))
        return [dict(zip(self.columns, v)) for v in values]

    def transcript(self, i: int) -> SessionTranscript:
        """Session ``i``'s transcript, built from the arrays."""
        cfg, seed, aborted = self.cfg, self.seeds[i], self.columns["aborted"]
        report = dict(strategy=cfg.eve_strategy, per_qubit_success=0.0, deterministic_bits=0,
                      shannon_bits=0.0, order_guess_distribution=())
        # transcripts record the seeds and the margin beside the config
        config = dict(asdict(cfg), rng_seed=seed, pa_hash_seed=seed ^ PA_SEED_XOR,
                      send_margin=SEND_MARGIN)
        head = dict(config=config, states_sent=self.states_sent[i].tolist(), eve_report=report)
        if aborted[i]:
            need = _layout(cfg)[3]
            reason = f"only {self.arrived[i]} of {need} needed qubits survived the channel"
            return SessionTranscript(**head, aborted=True, abort_reason=reason)
        j = np.count_nonzero(~aborted[:i])
        report.update((key, v[j].item() if isinstance(v, np.ndarray) else v)
                      for key, v in self.eve_stats.items())
        scalars = ("expended_order_bits", "trial_check_passed", "corrected_blocks")
        return SessionTranscript(
            **head,
            **{name: self.columns[name][i].item() for name in scalars},
            **{name: rows[j].tolist() for name, rows in self.bits.items()},
        )

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

    # Every draw, session by session on its own generator in the fixed
    # order.  Aborted sessions stop at the loss check; finished ones fill
    # rows 0..F-1 of the arrays drawn after it.
    sent, u, u_eve = np.empty((S, n_sent), dtype=np.int64), np.empty(n_sent), np.empty((S, n_sent))
    kept, depolarized = np.empty((2, S, n_sent), dtype=bool)  # u thresholded session by session
    raw, pad = (np.empty((S, n), dtype=np.uint8) for n in (n_raw, n_slots - n_coded))
    orders, guesses = np.empty((2, S, n_blocks), dtype=np.int64)
    u_adam, u_tap = np.empty((S, n_slots)), np.empty((S, n_blocks))
    arrived = np.empty(S, dtype=np.int64)
    F = 0
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        # step (i): Adam transmits random ring states; the channel acts once
        # per qubit round trip
        sent[i] = rng.integers(0, M, size=n_sent)
        np.greater_equal(rng.random(out=u), channel.loss_prob, out=kept[i])
        np.less(rng.random(out=u), channel.depolarize_prob, out=depolarized[i])
        if eve == "opaque":
            rng.random(out=u_eve[i])  # the uniforms of rng.choice(M, p=tables.srm)
        arrived[i] = np.count_nonzero(kept[i])
        if arrived[i] < n_slots:
            continue
        # step (ii): the responder's data, pad bits and secret orders
        raw[F] = rng.integers(0, 2, size=n_raw, dtype=np.uint8)
        pad[F] = rng.integers(0, 2, size=pad.shape[1], dtype=np.uint8)
        orders[F] = rng.integers(0, 4, size=n_blocks)
        if eve == "impersonate-order":
            guesses[F] = rng.integers(0, 4, size=n_blocks)
        rng.random(out=u_adam[F])  # Adam's measurement outcomes
        if eve == "translucent":
            rng.random(out=u_tap[F])
        F += 1
    done = arrived >= n_slots
    late = (raw, pad, orders, guesses, u_adam, u_tap)
    raw, pad, orders, guesses, u_adam, u_tap = (a[:F] for a in late)

    # the first n_slots surviving qubits, in the publicly acknowledged fill
    # order, read row by row by boolean indexing (int32 counts: n_sent < 2**31)
    used = kept & (np.cumsum(kept, axis=1, dtype=np.int32) <= n_slots)
    used[~done] = False
    dep = depolarized[used].reshape(F, n_slots)

    # the responder codes her bits and modulates each qubit: bit 0 rotates
    # +M/4 steps along the ring, bit 1 rotates -M/4; `steps` counts the ring
    # steps from the state Adam sent for a slot to the state he gets back
    coded = coding.cecc_encode(raw.reshape(-1), cfg.cecc).reshape(F, n_coded)
    slot_bits = np.concatenate([coded, pad], axis=1)
    steps = tables.q * (1 - 2 * slot_bits.astype(np.int64))
    if eve == "opaque":
        # Eve measures each outgoing qubit with the optimal ring detector, forwards her estimate
        eve_offsets = tables.draw_offset(u_eve[used]).reshape(F, n_slots)
        steps += eve_offsets
    if eve == "impersonate-order":
        # Adam restores with the true order; Eve packed with her guess.  The
        # slot he reads at position s actually holds slot sigma[s] of the
        # block, and the four orders never agree at any position, so a wrong
        # guess misplaces every qubit of the block.
        sigma = np.take_along_axis(ORDER_TABLE[guesses], INVERSE_ORDER_TABLE[orders], axis=2)
        sigma = (sigma + BLOCK_SIZE * np.arange(n_blocks)[:, None]).reshape(F, n_slots)
        sent_used = sent[used].reshape(F, n_slots)
        steps = np.take_along_axis(sent_used + steps, sigma, axis=1) - sent_used
        dep = np.take_along_axis(dep, sigma, axis=1)

    # step (iii): Adam measures his quarter-turn basis and decodes
    p0 = np.where(dep, 0.5, tables.decrypt_p0[steps % M])
    adam_coded = (u_adam >= p0).astype(np.uint8)
    adam_raw, corrected = coding.cecc_decode_rows(adam_coded[:, :n_coded], cfg.cecc)

    # privacy amplification of the 8k sifted bits down to 4k, each session
    # under its own hash seed
    pa_seeds = [seed ^ PA_SEED_XOR for seed, ok in zip(seeds, done) if ok]
    keys = coding.privacy_amplify(np.stack([adam_raw, raw], axis=1), pa_seeds, 4 * cfg.k)
    key_adam, key_babe = keys[:, 0], keys[:, 1]

    # step (iv): trial encryption of the fixed public plaintext
    plain = TRIAL_PLAINTEXT[: keys.shape[2]]
    tag = key_babe[:, : len(plain)] ^ plain
    trial_ok = np.all(key_adam[:, : len(plain)] ^ tag == plain, axis=1)

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
        # non-disturbing tap, scored by the loose bound: order-guessed
        # blocks leak their bits outright, the rest leak at the capacity of
        # a binary channel with the two-copy success rate
        pa = opaque_bound(M)
        det = BLOCK_SIZE * np.count_nonzero(u_tap < 0.25, axis=1)
        eve_stats = dict(per_qubit_success=pa, deterministic_bits=det,
                         shannon_bits=(n_slots - det) * (1.0 - binary_entropy(pa)),
                         blocks_guessed_right=det // BLOCK_SIZE)

    # an aborted session has no key and no check: empty keys compare equal
    columns = dict(aborted=~done, trial_check_passed=np.zeros(S, bool), key_bits=done * 4 * cfg.k,
                   keys_equal=np.ones(S, bool), corrected_blocks=np.zeros(S, np.int64),
                   expended_order_bits=done * 2 * n_blocks)
    columns["trial_check_passed"][done] = trial_ok
    columns["keys_equal"][done] = np.all(key_adam == key_babe, axis=1)
    columns["corrected_blocks"][done] = corrected
    bits = dict(orders_used=orders, raw_bits_babe=raw, raw_bits_adam=adam_raw,
                final_key_adam=key_adam, final_key_babe=key_babe)
    return SessionBatch(cfg, seeds, sent, arrived, columns, bits, eve_stats)
