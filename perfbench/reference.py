"""A fixed piece of work that measures how fast the host runs right now.

The shared hosts this benchmark runs on change speed by up to a third over
minutes, and that drift hits every CPU-bound time alike. The benchmark times
this work next to each CPU-bound command and scales the command's time by
``REF_S`` over the reference time, which removes the drift and leaves the
program's own cost. The work mixes the program's two kinds of CPU time: word
counting in pure Python, as in its tokenizers and lexical reports, and a
score matrix with top-k selection in numpy, as in its retrieval. It does not
import the program, so no change to the program changes it.
"""

from __future__ import annotations

import re
import time

import numpy as np

# Seconds the work takes at the faster end of the host the bounds were fixed
# on (2 vCPUs, Intel Xeon; 0.1 to 0.15 s there). Scaled times are seconds on
# a host running at that speed.
REF_S = 0.1

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")
# Small arrays and short texts, so that the work adds little to the peak RSS
# of the process that runs it.
_rng = np.random.default_rng(0)
_TEXTS = [" ".join(f"w{i}_x" for i in _rng.integers(0, 3000, 30)) for _ in range(2000)]
_QUERIES = _rng.standard_normal((100, 256))
_DOCS = _rng.standard_normal((500, 256))


def seconds() -> float:
    """Wall time of one pass of the reference work."""
    t0 = time.perf_counter()
    for _ in range(2):
        counts: dict[str, int] = {}
        for text in _TEXTS:
            for tok in _TOKEN_RE.findall(text):
                counts[tok] = counts.get(tok, 0) + 1
    for _ in range(100):
        np.argpartition(-(_QUERIES @ _DOCS.T), 10, axis=1)
    return time.perf_counter() - t0


seconds()  # the first pass pays one-off costs (BLAS threads, first page faults)
