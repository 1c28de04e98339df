"""Parse and serialise cost stays linear, at C speed, on a megabyte value.

Values full of markup specials and line breaks are the worst case for a
scanner that walks characters in Python: every run of text holds an
``&`` and every line break moves the position bookkeeping. On a 2-CPU
Xeon container the C-level scanning takes ~0.04 s to parse and ~0.012 s
to serialise this value; per-character Python loops took ~0.44 s and
~0.07–0.10 s. The bounds sit about 3× above the first pair.
"""

import random
import time

from repro.xmlkit import from_element, parse, to_element

ALPHABET = "abcdefghij<>&'\"\n"
VALUE_CHARS = 1 << 20


def _best_cpu_seconds(fn, runs=3):
    """Result of ``fn`` and the least thread CPU time over ``runs`` calls."""
    best = float("inf")
    for _ in range(runs):
        start = time.thread_time()
        result = fn()
        best = min(best, time.thread_time() - start)
    return result, best


def test_megabyte_value_round_trips_in_linear_time():
    rng = random.Random(1302)
    value = "".join(rng.choices(ALPHABET, k=VALUE_CHARS))

    doc, serialise_s = _best_cpu_seconds(lambda: to_element("value", value).toxml())
    decoded, parse_s = _best_cpu_seconds(lambda: from_element(parse(doc)))

    assert decoded == value
    assert serialise_s < 0.05, f"to_element(...).toxml() took {serialise_s:.3f} s CPU"
    assert parse_s < 0.15, f"from_element(parse(...)) took {parse_s:.3f} s CPU"
