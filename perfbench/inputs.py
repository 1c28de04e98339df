"""Seeded workload inputs and the independent references they are checked against.

Everything a run sends is drawn here from the workload seed; the system
under test only ever sees the generated values.  The reference
functions deliberately share no code with ``repro``: an answer is right
because this module says so, not because the program agrees with itself.
"""

from __future__ import annotations

import random
import string

#: Principal the load generator logs in as at the gateway.
USER = "bench"
PASSWORD = "Bench-Horse-2014"
PERMISSION = "encryption:call"

#: Closed-loop and open-loop request streams are cycled from this many
#: pre-drawn requests per sender.
STREAM_LENGTH = 4096

#: soap_bulk: key-set size, value size and the put share of the mix.
CACHE_KEYS = 256
VALUE_BYTES = 16 * 1024
VALUE_POOL = 48
PUT_EVERY = 5  # one put per four gets

_TEXT_ALPHABET = string.ascii_letters + string.digits + "-_.,!?"
# values carry XML specials so envelope escaping is on the measured path
_VALUE_ALPHABET = string.ascii_letters + string.digits + "<>&'\"=;:/-"


def caesar_reference(text: str, shift: int) -> str:
    """Shift ASCII letters by ``shift`` (case kept); all else passes."""
    out = []
    for ch in text:
        if "a" <= ch <= "z":
            out.append(chr((ord(ch) - 97 + shift) % 26 + 97))
        elif "A" <= ch <= "Z":
            out.append(chr((ord(ch) - 65 + shift) % 26 + 65))
        else:
            out.append(ch)
    return "".join(out)


def _text(rng: random.Random) -> str:
    words = []
    length = rng.randint(16, 64)
    while sum(map(len, words)) + len(words) < length:
        words.append("".join(rng.choices(_TEXT_ALPHABET, k=rng.randint(2, 9))))
    return " ".join(words)[:length].strip()


def caesar_stream(seed: int, sender: int) -> list[tuple[str, int, str]]:
    """``(text, shift, expected)`` requests for one sender."""
    rng = random.Random(f"caesar:{seed}:{sender}")
    stream = []
    for _ in range(STREAM_LENGTH):
        text = _text(rng)
        shift = rng.randint(1, 25)
        stream.append((text, shift, caesar_reference(text, shift)))
    return stream


def cache_keys(client: int) -> list[str]:
    """The keys one soap_bulk client owns (the set is split two ways)."""
    return [f"key-{index:03d}" for index in range(client, CACHE_KEYS, 2)]


def cache_values(seed: int) -> list[str]:
    """The pool of 16 KiB values puts draw from."""
    rng = random.Random(f"values:{seed}")
    return [
        "".join(rng.choices(_VALUE_ALPHABET, k=VALUE_BYTES))
        for _ in range(VALUE_POOL)
    ]


def initial_value(seed: int, key: str, pool_size: int = VALUE_POOL) -> int:
    """Index of the value a key is prepopulated with."""
    return random.Random(f"init:{seed}:{key}").randrange(pool_size)


def cache_stream(seed: int, client: int) -> list[tuple[str, str, int]]:
    """``(op, key, value_index)`` for one client: put:get at 1:4, shuffled."""
    rng = random.Random(f"cache:{seed}:{client}")
    keys = cache_keys(client)
    stream = []
    for index in range(STREAM_LENGTH):
        op = "put" if index % PUT_EVERY == 0 else "get"
        stream.append((op, rng.choice(keys), rng.randrange(VALUE_POOL)))
    rng.shuffle(stream)
    return stream


def arrival_gaps(seed: int, rate: float, count: int) -> list[float]:
    """Exponential inter-arrival gaps (a Poisson stream at ``rate``/s)."""
    rng = random.Random(f"arrivals:{seed}")
    return [rng.expovariate(rate) for _ in range(count)]


def sampler_seed(seed: int) -> int:
    """Seed of the tail sampler's keep-probability RNG in the SUT."""
    return random.Random(f"sampler:{seed}").randrange(2**31)
