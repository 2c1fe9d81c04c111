#!/usr/bin/env python3
"""End-to-end private-search benchmark: one closed-loop client, real servers.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The last stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics (see ``layers.py``); raw samples go to ``out/``.
Every workload replays a fixed op list a fixed number of rounds (the table
below); ``--seconds`` is the caller's time budget and only ever cuts a run
short.  README.md says why each workload and estimator is what it is.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"
SCORE_DIGITS = 9
BLOCK_SIZE = 3**SCORE_DIGITS  # Benaloh plaintext space, the library's client default
SETUP_REPEATS = 3
# The documents and the key pair are fixtures, the same for every seed: the
# seed chooses the queries, their grouping, and every ciphertext and shuffle.
# Measured while sizing this: the corpus decides how impacts quantise, which
# moves the server's power-table work by up to 23 % between corpora of one
# size, and the value of the modulus alone moves big-integer division by up
# to 10 % -- drawn from the seed, both would be noise on every timing metric.
CORPUS_SEED = 2010
KEY_SEED = 2011
MIN_ROUNDS = 3
#: A traced run times this many rounds over HTTP: the per-layer numbers that
#: come from the wire are medians over rounds, the rest of the run is replay.
TRACE_ROUNDS = 5

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "queries_per_s": "1/s",
    "server_cpu_ms_per_query": "ms",
    "client_cpu_ms_per_query": "ms",
    "wire_bytes_per_query": "B",
    "server_rss_mb": "MB",
}

# ``rounds`` is how often the op list is replayed; nothing about a run's work
# depends on how fast the machine is.  Sizes and rounds are chosen so that a
# round is 0.5-1.2 s on an undisturbed 2-core box, the measured phase 21-23 s
# there, and a whole run (inputs, SETUP_REPEATS set-ups, checks, measurement)
# under 45 s at a host factor of 1.6: the ledger makes 4 + 22 x 3 = 70 runs in
# 57 minutes.  ``levels`` / ``groups`` are the amounts of work the op list is
# conditioned on (see pick_queries), the same for every seed.
WORKLOADS = {
    "search_interactive": dict(
        kind="search", synsets=700, docs=60, key_bits=256, pool=360, rounds=20,
        # (genuine terms, ops, decryption_work of each): the median op is one
        # of twelve 2-term ops of the same cost, for every seed.
        groups=((1, 12, (125, 12)), (2, 12, (260, 24)), (3, 12, (390, 36))),
    ),
    "batch_single_node": dict(
        kind="batch", synsets=2500, docs=1000, key_bits=1024, pool=3000, rounds=30,
        ops=48, terms=3, levels=(150, 185, 225, 290),
    ),
    "mixed_update_search": dict(
        kind="mixed", synsets=2500, docs=500, key_bits=1024, pool=3000, rounds=18,
        cycles=8, reads=5, terms=3, levels=(75, 90, 110, 140),
        add=8, remove=4, checkpoint_every=4,
    ),
    # Not one of BENCHMARK.json's workloads: the two shard servers work at the
    # same time, so an op's wall time needs both cores of a 2-core host at
    # once, and on the ledger's shared host ten runs of identical code spread
    # over 15-17 % of their median (README.md).  Run it by hand on a quiet
    # machine; ``--trace 1`` on ``batch_single_node`` has the coordinator's
    # layers on the same batches.
    "batch_sharded": dict(
        kind="batch", synsets=2500, docs=1000, key_bits=1024, pool=3000, rounds=21,
        ops=48, terms=3, levels=(150, 185, 225, 290), shards=2,
    ),
}

# The same shapes at a size the smoke test can run in seconds.
TINY = {
    "search_interactive": dict(
        kind="search", synsets=300, docs=40, key_bits=128, pool=60, rounds=3,
        groups=((1, 2, (70, 7)), (2, 2, (140, 14)), (3, 2, (210, 21))),
    ),
    "batch_single_node": dict(
        kind="batch", synsets=300, docs=80, key_bits=128, pool=60, rounds=3,
        ops=3, terms=3, levels=(20, 30),
    ),
    "batch_sharded": dict(
        kind="batch", synsets=300, docs=80, key_bits=128, pool=60, rounds=3,
        ops=3, terms=3, levels=(20, 30), shards=2,
    ),
    "mixed_update_search": dict(
        kind="mixed", synsets=300, docs=80, key_bits=128, pool=60, rounds=3,
        cycles=2, reads=2, terms=3, levels=(20, 30),
        add=4, remove=2, checkpoint_every=2,
    ),
}


# -- the system under test ---------------------------------------------------------
if not (SRC / "repro").is_dir():
    sys.exit(f"run.py: no package under {SRC}; run from a checkout of the repository")
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # str hashes decide set order and dict collisions; pin them for this
    # process and every child so a seed means the same run everywhere.
    os.execve(
        sys.executable,
        [sys.executable, *sys.argv],
        {**os.environ, "PYTHONHASHSEED": "0"},
    )
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from repro.core.embellish import QueryEmbellisher  # noqa: E402
from repro.core.partitioning import HashPartitioner, save_sharded  # noqa: E402
from repro.core.postfilter import post_filter  # noqa: E402
from repro.core.server import PrivateRetrievalServer  # noqa: E402
from repro.core.workloads import QueryWorkloadGenerator  # noqa: E402
from repro.crypto.benaloh import generate_keypair  # noqa: E402
from repro.lexicon.builder import build_lexicon  # noqa: E402
from repro.service.app import ServiceConfig, chunked_organization  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.textsearch.corpus import Corpus, Document  # noqa: E402
from repro.textsearch.inverted_index import InvertedIndex  # noqa: E402
from repro.textsearch.synthetic import SyntheticCorpusGenerator  # noqa: E402

import layers  # noqa: E402
from layers import TOP_K  # noqa: E402
from reference_kernel import NOMINAL_MS, kernel_ms  # noqa: E402
from server_child import TENANT, UpdateStream  # noqa: E402


# -- child processes ---------------------------------------------------------------
_LIVE: set["ServerChild"] = set()


class ServerChild:
    """A ``server_child.py`` process and its control pipe.

    Started in its own process group (the shard servers it spawns join it),
    so one ``killpg`` reaps the whole server side on any exit path.
    """

    def __init__(self, *flags: str) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "server_child.py"), "--src", str(SRC), *flags],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        _LIVE.add(self)
        # Blocking read: the child prints the address its listener bound.
        parts = self.process.stdout.readline().split()
        if len(parts) != 2:
            self.kill()
            raise RuntimeError(f"server child reported no address (got {parts!r})")
        self.address = (parts[0], int(parts[1]))
        #: Every server-side process: this child first, then its shard servers.
        self.pids: list[int] = self.command(cmd="info")["pids"]

    def cpu_s(self) -> float:
        """user+sys seconds of the whole server side so far, from each
        process's CPU clock (nanosecond resolution, no request to the child)."""
        return sum(time.clock_gettime((~pid << 3) | 2) for pid in self.pids)

    def hwm_kb(self) -> int:
        """Sum of the processes' peak resident set sizes."""
        total = 0
        for pid in self.pids:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
        return total

    def command(self, **request) -> dict:
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server child died during {request['cmd']!r}")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"server child failed {request['cmd']!r}: {reply['error']}")
        return reply

    def reference_ms(self) -> float:
        """The reference kernel, run once in the child."""
        return self.command(cmd="reference")["ms"]

    def stop(self) -> None:
        """Ask for a drain, wait for the exit, then make sure of the group."""
        try:
            self.process.stdin.write('{"cmd": "stop"}\n')
            self.process.stdin.close()
            self.process.wait(timeout=20)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        _LIVE.discard(self)


def _reap_all() -> None:
    for child in list(_LIVE):
        child.kill()


def _on_signal(signum, _frame) -> None:
    _reap_all()
    sys.exit(128 + signum)


# -- host speed --------------------------------------------------------------------
# A shared host changes speed under the benchmark.  Measured while sizing it:
# the same work ran 1.2, 1.6 or 2.1 times slower than undisturbed for seconds
# to minutes at a time, code that allocates slowed down two to three times as
# much as arithmetic in registers, and for minutes the core the server side
# ran on was a third slower than the client's.  On the same samples, ten runs
# of identical code had quartile spreads of up to 16 % with best-of-rounds
# minima and up to 32 % with medians.  What did repeat (to 1-6 %) was the
# ratio of an op's time to the time of a fixed reference kernel run next to
# it, on the side that did the work.  So the end-to-end times are reported in
# *reference milliseconds*: each sample divided by the host factor around it
# -- how long the reference kernel took there, over the NOMINAL_MS it takes on
# an undisturbed host.  The measured milliseconds and the host factors are in
# every run's stderr summary, in out/run_*.json and in the per-layer metrics
# ``loadgen.*``.  README.md has the measurements behind this.
#: Reference runs on each side of an op that make up its host factor.
HOST_WINDOW = 3


def host_factor(samples) -> float:
    """The median resists the bursts that hit single samples; the seconds-long
    slowdowns move every sample, which is what is to be divided out."""
    return statistics.median(samples) / NOMINAL_MS


# -- wire accounting ---------------------------------------------------------------
class Wire:
    """HTTP body bytes this process sent and received."""

    up = 0
    down = 0

    @classmethod
    def total(cls) -> int:
        return cls.up + cls.down


class _CountingResponse(http.client.HTTPResponse):
    # readline() reaches the body through read(n), so one override sees
    # every body byte exactly once.
    def read(self, amt=None):
        data = super().read(amt)
        Wire.down += len(data)
        return data


class _CountingConnection(http.client.HTTPConnection):
    response_class = _CountingResponse

    def request(self, method, url, body=None, headers={}, **kwargs):
        if body is not None:
            Wire.up += len(body)
        return super().request(method, url, body=body, headers=headers, **kwargs)


# -- inputs ------------------------------------------------------------------------
@dataclass(frozen=True)
class Op:
    kind: str  # search | batch | update | checkpoint | open | close
    queries: tuple[tuple[str, ...], ...] = ()  # genuine terms, one tuple per query


@dataclass
class Inputs:
    name: str
    spec: dict
    seed: int
    base: list[tuple[int, str]]  # (doc id, text) of the indexed corpus
    stream: list[tuple[int, str]]  # documents the update ops add, in order
    ops: list[Op]
    target_miss: float  # how far the op furthest from its target is (pick_queries)

    @property
    def queries_per_round(self) -> int:
        return sum(len(op.queries) for op in self.ops)

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps([(op.kind, op.queries) for op in self.ops]).encode()
        ).hexdigest()

    def corpus(self) -> Corpus:
        return Corpus(Document(doc_id=d, text=t) for d, t in self.base)


def candidate_docs(view, organization, terms) -> set[int]:
    """Documents the server will return for ``terms``: every list of every
    bucket the embellished query names (decoys cost as much as genuine terms)."""
    docs: set[int] = set()
    for bucket in organization.buckets_for_query(terms).values():
        for term in bucket:
            docs.update(view.columns(term)[0])
    return docs


def decryption_work(view, organization, terms) -> tuple[int, int]:
    """What a search op costs its client: ``(modular exponentiations, candidates)``.

    The first is the full-size exponentiations the digit-wise decryption of
    the op's candidates makes: for each candidate one per base-3 digit of the
    plaintext space, plus the digit sum of its score (a decoy's document
    scores 0).  At one candidate-set size it still differs by +-8 % between
    queries, and decryption is all of a search op; the number of candidates
    is what the op puts on the wire.
    """
    scores = dict.fromkeys(candidate_docs(view, organization, terms), 0)
    for term in terms:
        for doc_id, impact in zip(*view.columns(term)):
            scores[doc_id] += impact
    work = 0
    for score in scores.values():
        work += SCORE_DIGITS
        while score:
            score, digit = divmod(score, 3)
            work += digit
    return work, len(scores)


def pick_queries(generator, measure, size, targets, pool_size):
    """Distinct ``size``-term queries, ``count`` of them nearest each
    ``(target, count)`` of ``targets`` by ``measure(terms)``.

    The terms come from the seed (document-frequency-weighted draws, as query
    logs are); the *amount of work* does not, because each op is a drawn
    query nearest a fixed amount of it: the size of the candidate set for a
    batch query, which is the server's work, and decryption_work for a
    search.  Measures and targets are tuples, compared by the sum of their
    relative differences.  Without this the op list's cost distribution would
    move by several percent from seed to seed and the medians below would
    measure the draw, not the system.
    """
    pool: dict[tuple[str, ...], tuple] = {}
    while len(pool) < pool_size:
        terms = tuple(sorted(generator.frequency_weighted_query(size)))
        if terms not in pool:
            pool[terms] = measure(terms)
    chosen, miss = [], 0.0
    for target, count in targets:

        def distance(terms):
            return sum(abs(have - want) / want for have, want in zip(pool[terms], target))

        nearest = sorted(pool, key=lambda terms: (distance(terms), terms))[:count]
        miss = max(miss, distance(nearest[-1]))
        chosen += nearest
        for terms in nearest:
            del pool[terms]
    return chosen, miss


def make_inputs(name: str, spec: dict, seed: int) -> Inputs:
    """Everything the run feeds the system: fixtures plus the seed's op list."""
    rng = random.Random(seed)
    stream_docs = spec.get("cycles", 0) * spec.get("add", 0)
    lexicon = build_lexicon(spec["synsets"], seed=CORPUS_SEED)
    documents = SyntheticCorpusGenerator(
        lexicon=lexicon, num_documents=spec["docs"] + stream_docs, seed=CORPUS_SEED + 1
    ).generate()
    pairs = [(doc.doc_id, doc.text) for doc in documents]
    base, stream = pairs[: spec["docs"]], pairs[spec["docs"] :]

    index = InvertedIndex.build(Corpus(Document(doc_id=d, text=t) for d, t in base))
    view = index.snapshot()
    # The organisation a default-configured service will derive and serve.
    organization = chunked_organization(index, ServiceConfig().bucket_size)
    generator = QueryWorkloadGenerator(index, seed=seed)

    if spec["kind"] == "search":
        ops, miss = [], 0.0
        for size, count, target in spec["groups"]:
            queries, group_miss = pick_queries(
                generator,
                lambda terms: decryption_work(view, organization, terms),
                size, [(target, count)], spec["pool"],
            )
            miss = max(miss, group_miss)
            ops.extend(Op("search", (terms,)) for terms in queries)
        rng.shuffle(ops)
        return Inputs(name, spec, seed, base, stream, ops, miss)

    reads = spec["ops"] if spec["kind"] == "batch" else spec["cycles"] * spec["reads"]
    levels = spec["levels"]
    queries, miss = pick_queries(
        generator,
        lambda terms: (len(candidate_docs(view, organization, terms)),),
        spec["terms"], [((level,), reads) for level in levels], spec["pool"],
    )
    # One query of every level per batch, so every batch is the same amount
    # of work; which queries meet in a batch is the seed's choice.
    columns = [queries[i * reads : (i + 1) * reads] for i in range(len(levels))]
    for column in columns:
        rng.shuffle(column)
    batches = [Op("batch", tuple(col[i] for col in columns)) for i in range(reads)]
    if spec["kind"] == "batch":
        return Inputs(name, spec, seed, base, stream, batches, miss)

    ops = []
    for cycle in range(spec["cycles"]):
        ops += [Op("update"), Op("open")]
        ops += batches[cycle * spec["reads"] : (cycle + 1) * spec["reads"]]
        ops.append(Op("close"))
        if (cycle + 1) % spec["checkpoint_every"] == 0:
            ops.append(Op("checkpoint"))
    return Inputs(name, spec, seed, base, stream, ops, miss)


# -- deployment --------------------------------------------------------------------
@dataclass
class Deployment:
    """One set-up: the server side, the client side, and the time it took."""

    inputs: Inputs
    workdir: Path
    child: ServerChild
    client: ServiceClient
    keypair: object
    embellisher: QueryEmbellisher | None = None
    tenant: str = TENANT
    session: str | None = None
    setup_s: float = 0.0  # reference seconds: every phase over its host factor
    setup_wall_s: float = 0.0  # the same phases as measured
    index: InvertedIndex | None = None  # what the runner built and saved
    #: Selector ciphertexts one round of search ops draws from the zero pool.
    selector_budget: int = 0
    #: Per-op payloads of the warm-up round, kept for the correctness check.
    warmup: list = field(default_factory=list)
    #: Mixed workload: the child's report on the tenant it last built.
    reset_reply: dict | None = None

    def close(self) -> None:
        self.child.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)


class PhaseTimer:
    """Wall time in phases, each over the host factor measured at its two ends
    (a set-up lasts seconds, and the host does not hold still that long), on
    the side that did the phase's work.  The reference runs are not counted."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.reference_s = 0.0
        self.client = [kernel_ms() for _ in range(2 * HOST_WINDOW)]
        self.server: list[float] = []  # no child yet
        self.mark = time.perf_counter()

    def lap(self, child: ServerChild | None = None, by_server: bool = False) -> None:
        """Close a phase.  ``child`` is the server child once there is one;
        ``by_server`` says the child did the phase's work."""
        wall = time.perf_counter() - self.mark
        client = [kernel_ms() for _ in range(2 * HOST_WINDOW)]
        server = [child.reference_ms() for _ in range(2 * HOST_WINDOW)] if child else []
        ends = self.server + server if by_server and self.server else self.client + client
        self.wall_s += wall
        self.reference_s += wall / host_factor(ends)
        self.client, self.server = client, server
        self.mark = time.perf_counter()


def set_up(inputs: Inputs, workdir: Path, tracer) -> Deployment:
    """Build, save, start, key, connect and warm up -- the timed set-up."""
    spec, seed = inputs.spec, inputs.seed
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    timer = PhaseTimer()
    index = None
    flags: list[str] = []
    if spec["kind"] == "mixed":  # the child builds its tenant, in fresh_tenant()
        corpus_file = workdir / "corpus.json"
        corpus_file.write_text(json.dumps({"base": inputs.base, "stream": inputs.stream}))
    else:
        with tracer.span("textsearch.inverted_index.build"):
            index = InvertedIndex.build(inputs.corpus())
        with tracer.span("textsearch.inverted_index.save_full"):
            index.save(workdir / "index")
        flags = ["--index-dir", str(workdir / "index")]
        if spec.get("shards"):
            save_sharded(
                index, workdir / "shards", HashPartitioner(num_shards=spec["shards"])
            )
            flags += ["--shard-root", str(workdir / "shards")]
    timer.lap()
    child = ServerChild(*flags)
    timer.lap(child)
    with tracer.span("crypto.benaloh.keygen"):
        keypair = generate_keypair(
            key_bits=spec["key_bits"], block_size=BLOCK_SIZE, rng=random.Random(KEY_SEED)
        )
    client = ServiceClient(*child.address)
    dep = Deployment(inputs, workdir, child, client, keypair, index=index)
    if spec["kind"] == "mixed":
        timer.lap(child)
        fresh_tenant(dep)
        timer.lap(child, by_server=True)
    dep.embellisher = QueryEmbellisher(
        organization=client.organization(dep.tenant),
        keypair=keypair,
        rng=random.Random(seed + 1),
    )
    if spec["kind"] != "mixed":
        dep.session = client.open_session(dep.tenant, keypair.public)
    if spec["kind"] == "search":
        buckets_for = dep.embellisher.organization.buckets_for_query
        dep.selector_budget = sum(
            len(bucket)
            for op in inputs.ops
            for bucket in buckets_for(op.queries[0]).values()
        )
    prepared = prepare_round(dep)
    timer.lap(child)
    warmup = run_round(dep, prepared, keep=True)
    dep.warmup = warmup.payloads
    dep.setup_wall_s = timer.wall_s + sum(warmup.op_ms) / 1e3
    dep.setup_s = timer.reference_s + sum(warmup.op_ref_ms) / 1e3
    return dep


def fresh_tenant(dep: Deployment) -> None:
    """Mixed workload: a newly built live tenant, so every pass starts equal."""
    save_dir = dep.workdir / "live"
    shutil.rmtree(save_dir, ignore_errors=True)
    reply = dep.child.command(
        cmd="reset", corpus=str(dep.workdir / "corpus.json"), save_dir=str(save_dir)
    )
    dep.tenant = reply["tenant"]
    dep.reset_reply = reply


# -- one round ---------------------------------------------------------------------
@dataclass
class Round:
    """One replay of the op list: per op, what was measured, the host factor
    on either side, and the same three times in reference milliseconds."""

    op_ms: list[float]  # wall time of each op
    op_client_cpu_ms: list[float]  # this process's CPU inside each op
    op_server_cpu_ms: list[float]  # server-side CPU from op start to next op start
    client_reference_ms: list[float]  # the kernel here, before each op and after the last
    server_reference_ms: list[float]  # the kernel in the server child, likewise
    host: list[float]  # each op's host factor on the client's side
    host_server: list[float]  # and on the server's
    op_ref_ms: list[float]
    op_client_cpu_ref_ms: list[float]
    op_server_cpu_ref_ms: list[float]
    wall_s: float
    wire_up: int
    wire_down: int
    payloads: list  # per op, what the check needs (only when keep=True)
    failed: int = 0
    #: NDJSON done lines of the batch requests, child replies of the others.
    replies: list = field(default_factory=list)


def prepare_round(dep: Deployment, fresh: bool = True) -> list:
    """Untimed work between rounds: fresh selectors and shuffles.

    Batch queries are embellished again (same genuine terms, new ciphertexts
    and order), so no layer can win by remembering request bytes.  Search ops
    embellish inside the op; here the zero pool is stocked for the round, as
    an idle client would.
    """
    if fresh and dep.inputs.spec["kind"] == "mixed" and dep.warmup:
        fresh_tenant(dep)
    if dep.selector_budget:
        dep.embellisher.prestock(dep.selector_budget)
    embellish = dep.embellisher.embellish
    return [
        [embellish(terms) for terms in op.queries] if op.kind == "batch" else None
        for op in dep.inputs.ops
    ]


def run_op(dep: Deployment, op: Op, prepared):
    """One op, exactly as a user of the library would issue it."""
    spec, client, modulus = dep.inputs.spec, dep.client, dep.keypair.public.n
    if op.kind == "batch":
        results, done = client.run_batch(dep.session, prepared, modulus)
        return results, done
    if op.kind == "search":
        query = dep.embellisher.embellish(op.queries[0])
        results, done = client.run_batch(dep.session, [query], modulus)
        ranking = post_filter(results[0], dep.keypair.private, k=TOP_K)
        return (query, results[0], ranking), done
    if op.kind == "open":
        dep.session = client.open_session(dep.tenant, dep.keypair.public)
        return None, {}
    if op.kind == "close":
        return None, client.close_session(dep.session)
    if op.kind == "update":
        return None, dep.child.command(cmd="update", add=spec["add"], remove=spec["remove"])
    return None, dep.child.command(cmd="checkpoint")


def run_round(dep: Deployment, prepared: list, keep=False, expected=None) -> Round:
    """Replay the op list once; time every op's wall clock and both CPUs.

    Between ops the reference kernel runs once here and once in the server
    child.  The server side's CPU clock is read after the client's kernel and
    before the child's, so an op's share holds what the server did after
    answering and none of the child's kernel.
    """
    ops = dep.inputs.ops
    op_ms, client_ms, server_ms, payloads, replies, failed = [], [], [], [], [], 0
    server_cpu_s, process_time, clock = dep.child.cpu_s, time.process_time, time.perf_counter
    server_kernel_ms = dep.child.reference_ms
    wire_up, wire_down = Wire.up, Wire.down
    client_reference, server_reference = [], []
    server_mark = None
    round_started = clock()
    for position, op in enumerate([*ops, None]):
        client_reference.append(kernel_ms())
        if server_mark is not None:
            server_ms.append((server_cpu_s() - server_mark) * 1e3)
        server_reference.append(server_kernel_ms())
        if op is None:
            break
        server_mark = server_cpu_s()
        cpu_started = process_time()
        started = clock()
        payload, reply = run_op(dep, op, prepared[position])
        op_ms.append((clock() - started) * 1e3)
        client_ms.append((process_time() - cpu_started) * 1e3)
        replies.append(reply)
        if keep:
            payloads.append((prepared[position], payload))
        elif expected is not None and not same_shape(op, payload, expected[position]):
            failed += 1
    wall = clock() - round_started

    def factors(reference):  # reference[i] ran just before op i, [i + 1] just after
        return [
            host_factor(reference[max(0, i + 1 - HOST_WINDOW) : i + 1 + HOST_WINDOW])
            for i in range(len(ops))
        ]

    host, host_server = factors(client_reference), factors(server_reference)
    client_ref = [ms / here for ms, here in zip(client_ms, host)]
    # An op's wall time is the client's own work plus waiting for the server.
    op_ref = [
        own + max(ms - busy, 0.0) / there
        for ms, busy, own, there in zip(op_ms, client_ms, client_ref, host_server)
    ]
    return Round(
        op_ms, client_ms, server_ms, client_reference, server_reference, host, host_server,
        op_ref, client_ref, [ms / there for ms, there in zip(server_ms, host_server)],
        wall, Wire.up - wire_up, Wire.down - wire_down, payloads, failed, replies,
    )


# -- correctness -------------------------------------------------------------------
def plaintext_ranking(index, terms) -> tuple[tuple[int, float], ...]:
    """What the user must see: documents by summed quantised impact."""
    scores: dict[int, int] = {}
    for term in terms:
        for posting in index.postings(term):
            scores[posting.doc_id] = scores.get(posting.doc_id, 0) + posting.quantised_impact
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:TOP_K]
    return tuple((doc_id, float(score)) for doc_id, score in ranked)


def check_warmup(dep: Deployment, corrupt: bool) -> tuple[list, int]:
    """Every warm-up op against an in-process oracle, bit for bit.

    Returns what later rounds are compared with (candidate ids per query, or
    the plaintext ranking) and the number of warm-up ops that failed.  The
    oracle is a ``PrivateRetrievalServer`` in this process over an index
    built here; for the mixed workload it replays the same updates.
    """
    inputs = dep.inputs
    index = dep.index or InvertedIndex.build(inputs.corpus())
    oracle = PrivateRetrievalServer(
        index=index,
        organization=dep.embellisher.organization,
        public_key=dep.keypair.public,
    )
    updates = UpdateStream(inputs.stream)
    expected, failed = [], 0
    for op, (prepared, payload) in zip(inputs.ops, dep.warmup):
        if op.kind == "update":
            updates.apply(index, inputs.spec["add"], inputs.spec["remove"])
        if op.kind == "batch":
            want = [r.encrypted_scores for r in oracle.process_batch(prepared)]
            if corrupt:
                doc_id = next(iter(want[0]))
                want[0][doc_id] ^= 1
                corrupt = False
            got = [r.encrypted_scores for r in payload]
            failed += got != want
            expected.append([frozenset(scores) for scores in want])
        elif op.kind == "search":
            query, result, ranking = payload
            want = oracle.process_query(query).encrypted_scores
            if corrupt:
                want[next(iter(want))] ^= 1
                corrupt = False
            plain = plaintext_ranking(index, op.queries[0])
            failed += result.encrypted_scores != want or ranking.ranking != plain
            expected.append(plain)
        else:
            expected.append(None)
    return expected, failed


def same_shape(op: Op, payload, expected) -> bool:
    """The per-op check of the timed rounds.

    Selectors are re-drawn every round, so ciphertexts differ from the
    warm-up's by design; what must not differ is the candidate set of every
    batch query and, for a search, the decrypted ranking itself.
    """
    if op.kind == "batch":
        return [r.encrypted_scores.keys() for r in payload] == expected
    if op.kind == "search":
        return payload[2].ranking == expected
    return True


# -- the run -----------------------------------------------------------------------
def measure(dep: Deployment, expected: list, rounds: int, seconds: float) -> list[Round]:
    """``rounds`` replays of the op list.

    ``seconds`` is the caller's budget for the measured phase.  On an
    undisturbed host the table's rounds fit it with a quarter to spare; on a
    slower one the run stops, after at least MIN_ROUNDS, before the round that would
    overrun it, so that a ledger run always ends in time.
    """
    done: list[Round] = []
    started = time.perf_counter()
    while len(done) < rounds:
        prepared = prepare_round(dep)
        done.append(run_round(dep, prepared, expected=expected))
        elapsed = time.perf_counter() - started
        if len(done) >= MIN_ROUNDS and elapsed + elapsed / len(done) > seconds:
            break
    return done


def lower_quartile(values) -> float:
    ordered = sorted(values)
    at = 0.25 * (len(ordered) - 1)
    low = int(at)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (at - low)


def per_op(rounds: list[Round], samples: str) -> list[float]:
    """Each op's cost: the lower quartile of its samples over the rounds.

    Every sample is the op's cost plus interference that is never negative,
    so the low end of the samples is what repeats; the lower quartile rather
    than the minimum, because the host factor a sample was divided by has an
    error of its own, on both sides.
    """
    return [lower_quartile(column) for column in zip(*(getattr(r, samples) for r in rounds))]


def end_to_end(inputs: Inputs, setups: list[float], rounds: list[Round], hwm_kb) -> dict:
    """The estimators: a round's cost is the sum of its ops' costs."""
    queries = inputs.queries_per_round
    wall = per_op(rounds, "op_ref_ms")
    return {
        "setup_s": statistics.median(setups),
        "op_ms_p50": statistics.median(
            ms for ms, op in zip(wall, inputs.ops) if op.queries
        ),
        "queries_per_s": queries / sum(wall) * 1e3,
        "server_cpu_ms_per_query": sum(per_op(rounds, "op_server_cpu_ref_ms")) / queries,
        "client_cpu_ms_per_query": sum(per_op(rounds, "op_client_cpu_ref_ms")) / queries,
        "wire_bytes_per_query": statistics.median(
            r.wire_up + r.wire_down for r in rounds
        ) / queries,
        "server_rss_mb": hwm_kb / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=30.0,
        help="budget of the measured phase: the table's rounds are cut short, "
        f"to no fewer than {MIN_ROUNDS}, rather than overrun it",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help=f"1: one set-up, {TRACE_ROUNDS} rounds over HTTP, then the in-process "
        "replay and the layer probes; reports the per-layer metrics instead",
    )
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument(
        "--corrupt-expected", action="store_true",
        help="flip one bit of the oracle's answer: the run must then fail",
    )
    args = parser.parse_args(argv)
    spec = (TINY if args.tiny else WORKLOADS)[args.workload]

    atexit.register(_reap_all)
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _on_signal)
    http.client.HTTPConnection = _CountingConnection
    OUT.mkdir(exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(OUT / "kernel-cache")
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    tracer = layers.Tracer() if args.trace else layers.NO_TRACE

    inputs = make_inputs(args.workload, spec, args.seed)
    setups: list[float] = []
    setup_walls: list[float] = []
    dep = None
    try:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            if dep is not None:
                dep.close()
            dep = set_up(inputs, workdir, tracer)
            setups.append(dep.setup_s)
            setup_walls.append(dep.setup_wall_s)
        expected, failed = check_warmup(dep, args.corrupt_expected)
        attempted = len(inputs.ops)
        gc.collect()
        gc.freeze()
        rounds = measure(
            dep, expected, TRACE_ROUNDS if args.trace else spec["rounds"], args.seconds
        )
        attempted += len(rounds) * len(inputs.ops)
        failed += sum(r.failed for r in rounds)
        measured = end_to_end(inputs, setups, rounds, dep.child.hwm_kb())
        if args.trace:
            metrics = layers.per_layer(dep, rounds, tracer, prepare_round, Wire.total, OUT)
        else:
            metrics = {k: {"value": measured[k], "unit": u} for k, u in END_TO_END.items()}
    finally:
        if dep is not None:
            dep.close()

    reads = [i for i, op in enumerate(inputs.ops) if op.queries]
    raw_op_ms = per_op(rounds, "op_ms")
    factor = statistics.median(h for r in rounds for h in r.host)
    factor_server = statistics.median(h for r in rounds for h in r.host_server)
    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_sha256": inputs.digest(),
        "ops": len(inputs.ops),
        "queries_per_round": inputs.queries_per_round,
        "target_miss": inputs.target_miss,
        "end_to_end": measured,
        "host_factor": factor,
        "host_factor_server": factor_server,
        "setups_s": setups,
        "setup_walls_s": setup_walls,
        "rounds": [
            {"wall_s": r.wall_s, "wire_up": r.wire_up, "wire_down": r.wire_down,
             "failed": r.failed, "op_ms": r.op_ms, "op_client_cpu_ms": r.op_client_cpu_ms,
             "op_server_cpu_ms": r.op_server_cpu_ms, "op_ref_ms": r.op_ref_ms,
             "client_reference_ms": r.client_reference_ms,
             "server_reference_ms": r.server_reference_ms,
             "host": r.host, "host_server": r.host_server}
            for r in rounds
        ],
        "server_processes": len(dep.child.pids),
    }
    name = f"{'trace' if args.trace else 'run'}_{args.workload}_{args.seed}.json"
    (OUT / name).write_text(json.dumps(raw))
    print(
        f"{args.workload} seed={args.seed}: {len(rounds)} rounds x {len(inputs.ops)} ops, "
        f"{failed} failed; host factor {factor:.2f} client {factor_server:.2f} server; op_ms_p50 "
        f"{statistics.median(raw_op_ms[i] for i in reads):.2f} ms measured, "
        f"{measured['op_ms_p50']:.2f} reference ms; set-ups "
        f"{[round(s, 2) for s in setup_walls]} s measured, "
        f"{[round(s, 2) for s in setups]} reference s",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
