"""Named, independent random-number streams and seed derivation.

A discrete-event simulation is only debuggable when it is reproducible.
Reproducibility breaks as soon as two unrelated consumers (say, backoff
draws and shadowing draws) interleave their pulls from a single generator:
adding one extra packet perturbs every later draw everywhere.

:class:`RngStreams` gives each consumer its own :class:`numpy.random.Generator`
derived from a single root seed via ``SeedSequence.spawn``-style keying, so

* the same root seed always reproduces the same run, and
* changes in one subsystem's draw count never perturb another subsystem.

:func:`derive_seed` is the content-addressed counterpart: a SHA-256
derivation over an arbitrary key tuple, stable across processes and
platforms.  The parallel sweep executor keys per-task seeds with it, and
:meth:`RngStreams.substream` keys per-(transmitter, receiver) shadowing
generators with the same derivation — the property that lets the channel
*skip* a draw for one link without perturbing any other link's randomness.

Both kinds of stream draw exactly what ``numpy.random.default_rng(seed)``
draws.  A stream is built as ``Generator(PCG64(SeedSequence(entropy)))``.
Substreams are seeded in batches: :meth:`RngStreams.substreams` creates
every missing substream of one key head in one call (the channel seeds
all of a receiver table's new links at once), and
:meth:`RngStreams.substream` is a batch of one.  A batch hashes each
key, then :func:`seed_sequence_words` computes the four 64-bit words
``SeedSequence(seed).generate_state(4, np.uint64)`` would give for every
seed of the batch at once, on Python integers that carry one seed per
lane, and hands each seed's words to ``PCG64`` through a holder that
answers only that request.  This skips numpy's ``SeedSequence`` object,
its entropy coercion and its ``errstate`` wrapper.  On a 2-CPU Xeon
(Python 3.11, numpy 2.4) a link in a batch of 20 costs about 5 µs in all,
1.4 µs of it words, against about 14 µs through ``PCG64(seed)``; a batch
of one costs more than ``PCG64(seed)`` (12 against 9 µs), so the gain
comes from batches.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from typing import Any, Dict, Iterable, List, Sequence

import numpy as np

_SEED_BITS = 63
_SEED_MASK = (1 << _SEED_BITS) - 1


def derive_seed(base_seed: int, *key: Any) -> int:
    """A collision-free child seed from ``(base_seed, *key)``.

    The key tuple is canonically encoded and hashed with SHA-256, then
    folded to a non-negative 63-bit integer.  Unlike ``hash()`` this is
    stable across processes, platforms, and Python versions, and unlike
    arithmetic schemes (``seed + 1000 * rep``) distinct keys cannot
    collide for any realistic grid size (a collision needs ~2^31 keys).
    """
    payload = _canonical((int(base_seed),) + tuple(key))
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") & _SEED_MASK


def _canonical(value: Any) -> bytes:
    """A byte encoding of ``value`` that is stable across runs/platforms."""
    return _canon_str(value).encode("utf-8")


def _canon_str(value: Any) -> str:
    if isinstance(value, bool):  # before int: bool is an int subclass
        return f"b:{value}"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        # repr() is the shortest round-trip form — identical on every
        # IEEE-754 platform supported by CPython >= 3.1.
        return f"f:{value!r}"
    if isinstance(value, str):
        return f"s:{len(value)}:{value}"
    if value is None:
        return "n"
    if isinstance(value, (list, tuple)):
        inner = ",".join(_canon_str(v) for v in value)
        return f"t:[{inner}]"
    if isinstance(value, dict):
        inner = ",".join(
            f"{_canon_str(k)}={_canon_str(v)}" for k, v in sorted(value.items())
        )
        return f"d:{{{inner}}}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return f"dc:{type(value).__qualname__}:{_canon_str(body)}"
    if callable(value):
        module = getattr(value, "__module__", "?")
        name = getattr(value, "__qualname__", repr(value))
        return f"fn:{module}.{name}"
    if hasattr(value, "__dict__"):
        # Plain config objects (e.g. error models, RateTable): class name
        # plus instance attributes.
        return f"obj:{type(value).__qualname__}:{_canon_str(vars(value))}"
    raise TypeError(
        f"cannot canonically encode {type(value).__qualname__!r} for "
        f"seed/cache derivation"
    )


# numpy's SeedSequence (numpy/random/bit_generator.pyx) for a pool of four
# 32-bit words.  A seed below 2**64 is one or two entropy words, and numpy
# mixes a one-word seed exactly as a two-word seed whose high word is 0:
# the pool words past the entropy are hashed from 0 either way.
_M32 = 0xFFFFFFFF
_MIX_MULT_L = 0xCA01F9DD
#: ``-MIX_MULT_R`` modulo 2**32, so that ``mix`` is a sum and never borrows
#: across lanes.
_MIX_MULT_R_NEG = (1 << 32) - 0x4973F715


def _hash_constants(start: int, mult: int, count: int) -> tuple:
    """The hash constant before each of ``count - 1`` hash steps, and after."""
    constants = [start]
    while len(constants) < count:
        constants.append(constants[-1] * mult & _M32)
    return tuple(constants)


#: ``mix_entropy``'s 16 hash steps (``hashmix``): step ``k`` XORs with
#: ``_HASH_A[k]`` and multiplies by ``_HASH_A[k + 1]``.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
#: ``generate_state``'s 8 output steps, in the same form.
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)


def _xorshift16(value: int) -> int:
    return value ^ value >> 16


#: Pool words 2 and 3 before mixing: ``hashmix(0)`` at steps 2 and 3.
_POOL_2 = _xorshift16(_HASH_A[2] * _HASH_A[3] & _M32)
_POOL_3 = _xorshift16(_HASH_A[3] * _HASH_A[4] & _M32)
#: The 12 mixing steps (source word, destination word, XOR, multiplier):
#: every word is mixed into every other, sources in order.
_MIX_STEPS = tuple(
    (src, dst, _HASH_A[k], _HASH_A[k + 1])
    for k, (src, dst) in enumerate(
        ((src, dst) for src in range(4) for dst in range(4) if src != dst), start=4
    )
)

#: ``generate_state``'s 8 output steps (pool word, XOR, multiplier, output
#: word, bit offset in it): 32-bit output ``j`` is the low (even ``j``) or
#: high half of 64-bit word ``j // 2``.
_OUTPUT_STEPS = tuple(
    (j % 4, _HASH_B[j], _HASH_B[j + 1], j // 2, j % 2 * 32) for j in range(8)
)

#: A lane carries one seed: 72 bits hold ``mix``'s 65-bit sum of two
#: 64-bit products.  Lanes are whole bytes, so seeds go in and words come
#: out as bytes.
_LANE_BYTES = 9
_LANE_ONE = b"\x01" + bytes(_LANE_BYTES - 1)
#: Low 16 bits of both 32-bit halves of a lane's 64-bit output word.
_LANE_HALVES_LOW16 = b"\xff\xff\x00\x00\xff\xff" + bytes(_LANE_BYTES - 6)
_LITTLE_U64 = np.dtype("<u8")


def seed_sequence_words(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for many seeds at once.

    Row ``i`` of the ``(len(seeds), 4)`` uint64 array is the state
    ``PCG64(seeds[i])`` is seeded with.  Each seed must lie in
    ``[0, 2**64)``.

    The seeds are packed one per lane into a Python integer, and each
    step of numpy's 32-bit mixing is one integer operation over all the
    lanes: XOR with a constant repeated in every lane, multiply by a
    32-bit constant (no lane's product reaches the next lane), and mask
    back to 32 bits.  Each ``>> 16`` is masked to 16 bits, dropping the
    bits it brings down from the next lane.  The lane constants are built
    per call, since a batch is as large as a receiver table.
    """
    n = len(seeds)
    ones = int.from_bytes(_LANE_ONE * n, "little")
    m32 = _M32 * ones
    m16 = 0xFFFF * ones
    # Eight bytes per seed and a zero byte: OverflowError outside [0, 2**64).
    lanes = int.from_bytes(
        b"\0".join([seed.to_bytes(8, "little") for seed in seeds]) + b"\0", "little"
    )
    # Hash the two entropy words into the pool, then mix the pool.
    low = ((lanes & m32) ^ _HASH_A[0] * ones) * _HASH_A[1] & m32
    high = ((lanes >> 32 & m32) ^ _HASH_A[1] * ones) * _HASH_A[2] & m32
    pool = [low ^ low >> 16 & m16, high ^ high >> 16 & m16,
            _POOL_2 * ones, _POOL_3 * ones]
    for src, dst, xor, mult in _MIX_STEPS:
        hashed = (pool[src] ^ xor * ones) * mult & m32
        hashed ^= hashed >> 16 & m16
        mixed = (pool[dst] * _MIX_MULT_L + hashed * _MIX_MULT_R_NEG) & m32
        pool[dst] = mixed ^ mixed >> 16 & m16
    # generate_state: word w of every seed goes to block w of ``out``, and
    # one shift and mask finishes all eight 32-bit outputs.
    block = 8 * _LANE_BYTES * n
    out = 0
    for src, xor, mult, word, offset in _OUTPUT_STEPS:
        hashed = (pool[src] ^ xor * ones) * mult & m32
        out |= hashed << (word * block + offset)
    out ^= out >> 16 & int.from_bytes(_LANE_HALVES_LOW16 * (4 * n), "little")
    # Seed i's word w starts at byte (w * n + i) * _LANE_BYTES.
    words = np.ndarray(
        (n, 4), _LITTLE_U64, out.to_bytes(4 * _LANE_BYTES * n, "little"),
        0, (_LANE_BYTES, _LANE_BYTES * n),
    )
    return words.astype(np.uint64, order="C")


class _SeedWords:
    """A seed sequence whose ``PCG64`` state words are already computed.

    It answers the one request ``PCG64`` makes, ``generate_state(4,
    np.uint64)``, and raises on any other.  ``PCG64`` takes it as a seed
    sequence once :func:`_seed_words_type` has registered it.
    """

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(
                "holds only the PCG64 state: generate_state(4, np.uint64)"
            )
        return self._words


@functools.lru_cache(maxsize=None)
def _seed_words_type() -> type:
    """:class:`_SeedWords`, registered as a numpy ``ISeedSequence``.

    Registered at the first batch rather than subclassed, so that
    importing this module does not import ``numpy.random``: importing it
    here, before a process's first generator needs it, raised the
    ``dense_cell`` benchmark's peak RSS by 0.5 MB.
    """
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)
    return _SeedWords


class RngStreams:
    """A family of independent RNG streams derived from one root seed.

    Streams are addressed by string name (and optionally extra integer
    keys, e.g. a node id) and created lazily::

        rngs = RngStreams(seed=7)
        backoff = rngs.stream("backoff", node_id)
        shadowing = rngs.stream("shadowing")

    Requesting the same name/keys twice returns the *same* generator
    object, so stateful consumption continues where it left off.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[tuple, np.random.Generator] = {}
        self._substreams: Dict[tuple, np.random.Generator] = {}
        #: (key head, its element types) -> SHA-256 state that has absorbed
        #: the head's canonical bytes; see :meth:`_head_state`.
        self._heads: Dict[tuple, Any] = {}

    @property
    def seed(self) -> int:
        """The root seed this family was built from."""
        return self._seed

    def stream(self, name: str, *keys: int) -> np.random.Generator:
        """Return the generator for ``(name, *keys)``, creating it on demand."""
        key = (name,) + tuple(int(k) for k in keys)
        gen = self._streams.get(key)
        if gen is None:
            # Deterministic child seed: hash the textual key together with
            # the root seed through SeedSequence entropy mixing.
            entropy = [self._seed] + [ord(c) for c in name] + list(key[1:])
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
            self._streams[key] = gen
        return gen

    def substream(self, name: str, *keys: Any) -> np.random.Generator:
        """A counter-based generator for ``(name, *keys)``, created on demand.

        Unlike :meth:`stream` — whose child seeds come from SeedSequence
        entropy mixing — a substream's seed is
        ``derive_seed(root_seed, name, *keys)``: a content-addressed
        SHA-256 derivation that depends only on the key's *identity*.
        Substreams therefore stay independent of creation order and of
        how many other substreams exist, which is what lets hot-path
        consumers (the channel's per-link shadowing draws) skip entire
        substreams without perturbing the rest of the run.

        Requesting the same key twice returns the *same* generator, so
        stateful consumption continues where it left off.  A missing
        substream is created as a batch of one (:meth:`substreams`).
        """
        key = (name,) + keys
        gen = self._substreams.get(key)
        if gen is None:
            gen = self.substreams(key[:-1], key[-1:])[0]
        return gen

    def substreams(self, head: tuple, lasts: Iterable[Any]) -> List[np.random.Generator]:
        """The substreams ``(*head, last)`` for each of ``lasts``, in order.

        Every missing one is created in this call, in one batch: each
        key's seed is ``derive_seed(root_seed, *head, last)``, and
        :func:`seed_sequence_words` computes the ``PCG64`` state of all
        of them at once.  A substream draws the same whether it was made
        in a batch or alone, and whatever else its batch held.
        """
        keys = [head + (last,) for last in lasts]
        streams = self._substreams
        missing = [key for key in dict.fromkeys(keys) if key not in streams]
        if missing:
            state = self._head_state(head)
            seeds = []
            for key in missing:
                digest = state.copy()
                digest.update((_canon_str(key[-1]) + "]").encode("utf-8"))
                seeds.append(int.from_bytes(digest.digest()[:8], "big") & _SEED_MASK)
            seed_words = _seed_words_type()
            for key, words in zip(missing, seed_sequence_words(seeds)):
                streams[key] = np.random.Generator(np.random.PCG64(seed_words(words)))
        return [streams[key] for key in keys]

    def _head_state(self, head: tuple) -> Any:
        """A SHA-256 state that has absorbed the canonical bytes of ``head``.

        SHA-256 is fed the same canonical bytes :func:`derive_seed` feeds
        it.  Everything before a key's last element (the root seed, the
        name and the other keys: ``("shadowing", band, sender)`` for a
        link) is absorbed once per head, and each new key copies that
        state and adds only its last element.  Heads are told apart by
        their elements' types too, since ``1``, ``1.0`` and ``True`` are
        equal keys with different encodings.
        """
        head_key = (head, tuple(map(type, head)))
        state = self._heads.get(head_key)
        if state is None:
            prefix = "t:[" + ",".join(map(_canon_str, (self._seed,) + head)) + ","
            state = self._heads[head_key] = hashlib.sha256(prefix.encode("utf-8"))
        return state

    def known_streams(self) -> Iterable[tuple]:
        """Names of all streams created so far (diagnostic aid)."""
        return tuple(self._streams.keys()) + tuple(self._substreams.keys())
