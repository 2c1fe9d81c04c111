"""The reference kernel: a fixed piece of work that tells how fast a core is.

The load generator runs it in its own process and asks the server child to
run it in the server's, next to every op, and divides what it timed on each
side by how long the kernel took there (``run.py`` says why).
"""

from __future__ import annotations

import json
import time

#: The kernel's CPU time, in ms, on an undisturbed host: the definition of the
#: unit.  One reference millisecond is a millisecond of a host on which the
#: kernel takes this long.
NOMINAL_MS = 0.78

_N = (1 << 1024) - 159
_X = 3**600
_DOC = json.dumps({"scores": {str(i): format(pow(3, 1000 + i, _N), "x") for i in range(80)}})


def kernel_ms() -> float:
    """CPU time of the two things this system does.

    Half is arithmetic (200 modular squarings at 1024 bits), half is the
    codec's kind of work (parse a result line of 80 hex ciphertexts into
    integers and print it again), because interference slows the second kind
    more.  CPU time, so that being descheduled does not read as being slow.
    """
    started = time.process_time()
    x = _X
    for _ in range(200):
        x = x * x % _N
    scores = {int(k): int(v, 16) for k, v in json.loads(_DOC)["scores"].items()}
    json.dumps({"scores": {str(k): format(v, "x") for k, v in scores.items()}})
    return (time.process_time() - started) * 1e3
