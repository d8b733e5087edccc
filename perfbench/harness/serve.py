"""The serve workload: prop_serve on one stdin/stdout pipe.

One client thread runs a closed loop that keeps OUTSTANDING jobs in
flight, because callers wait for each reply.  The job set is a seeded,
stratified mix: every bundled circuit below and every inline synthetic is
submitted under each (algo, k) cell, so two seeds differ in job seeds,
synthetic graphs and order, not in composition.  The set is sent over and
over until the measuring time ends.
"""

import json
import os
import random
import selectors
import time
from dataclasses import dataclass, field

from . import checker, layers, procs, stats
from .stats import TAIL_PERCENTILE

WORKERS = 2
OUTSTANDING = 4
SETUP_PROBES = 10
STALL_S = 60.0     # no response for this long ends the run as failed
# Bundled Table-1 circuits of 0.8-2.8k nodes, so jobs stay short.
BUNDLED = ("balu", "bm1", "p1", "struct", "t3", "t4", "t6", "19ks")
INLINE_NODES = (2000, 5000)
INLINE_GRAPHS = 8
CELLS = (("prop", 2), ("prop", 4), ("fm", 2), ("fm", 4))


@dataclass
class Job:
    key: int
    k: int
    hgr_path: str
    body: str      # the request line after its id member
    algo: str


def make_jobs(rng, circuit_paths, inline_paths):
    """`circuit_paths`: name -> .hgr of the bundled circuit (for the
    checker); `inline_paths`: the synthetic .hgr files sent inline."""
    specs = []
    for name, path in circuit_paths.items():
        specs += [({"circuit": name}, path, algo, k) for algo, k in CELLS]
    for path in inline_paths:
        with open(path) as f:
            text = f.read()
        specs += [({"hgr": text}, path, algo, k) for algo, k in CELLS]
    rng.shuffle(specs)
    jobs = []
    for key, (source, path, algo, k) in enumerate(specs):
        request = dict(source, algo=algo, k=k, runs=1,
                       seed=rng.getrandbits(32), return_partition=True)
        body = json.dumps(request, separators=(",", ":"))[1:]
        jobs.append(Job(key, k, path, body, algo))
    return jobs


def inline_sizes(rng):
    """One node count per stratum of INLINE_NODES."""
    lo, hi = INLINE_NODES
    width = (hi - lo) / INLINE_GRAPHS
    return [int(lo + (i + rng.random()) * width) for i in range(INLINE_GRAPHS)]


@dataclass
class Answer:
    job_id: str
    key: int
    sent: float
    received: float
    response: dict


@dataclass
class Transcript:
    prefix: str                                     # of this phase's ids
    submitted: list = field(default_factory=list)   # ids in send order
    answers: list = field(default_factory=list)     # Answer, arrival order
    stray: list = field(default_factory=list)       # responses with no id
    stalled: bool = False


def tally(submitted, responses):
    """Counts a serve transcript.  `responses` are decoded response lines
    in arrival order.  Every submitted id must be answered exactly once
    with state "done"; failed, shed and invalid answers, missing ids,
    duplicate answers and answers to ids never submitted all count as
    failed."""
    wanted = set(submitted)
    seen = set()
    counts = dict(attempted=len(submitted), done=0, failed=0, shed=0,
                  invalid=0, missing=0, duplicate=0, unknown=0)
    for r in responses:
        job_id = r.get("id")
        if job_id not in wanted:
            counts["unknown"] += 1
            continue
        if job_id in seen:
            counts["duplicate"] += 1
            continue
        seen.add(job_id)
        state = r.get("state")
        counts[state if state in ("done", "failed", "shed", "invalid")
               else "failed"] += 1
    counts["missing"] = len(wanted - seen)
    counts["bad"] = (counts["attempted"] - counts["done"] + counts["duplicate"]
                     + counts["unknown"])
    return counts


class Client:
    """Non-blocking line client over the server's pipes."""

    def __init__(self, server):
        self.server = server
        os.set_blocking(server.stdin, False)
        os.set_blocking(server.stdout, False)
        self.sel = selectors.DefaultSelector()
        self.sel.register(server.stdout, selectors.EVENT_READ)
        self.writing = False
        self.outbox = bytearray()
        self.line_ends = []   # (outbox offset past a line, its id)
        self.inbox = bytearray()

    def send(self, job_id, line):
        self.outbox += line.encode() + b"\n"
        self.line_ends.append((len(self.outbox), job_id))

    def pump(self, timeout):
        """Writes what the pipe takes and reads what arrived.  Returns
        (ids whose request line is now fully written, response lines)."""
        if bool(self.outbox) != self.writing:
            if self.outbox:
                self.sel.register(self.server.stdin, selectors.EVENT_WRITE)
            else:
                self.sel.unregister(self.server.stdin)
            self.writing = bool(self.outbox)
        written = []
        for key, _ in self.sel.select(timeout):
            if key.fd == self.server.stdin:
                n = os.write(self.server.stdin, self.outbox)
                del self.outbox[:n]
                while self.line_ends and self.line_ends[0][0] <= n:
                    written.append(self.line_ends.pop(0)[1])
                self.line_ends = [(end - n, i) for end, i in self.line_ends]
            else:
                chunk = os.read(self.server.stdout, 1 << 20)
                if not chunk:
                    raise EOFError("server closed its output")
                self.inbox += chunk
        *lines, rest = self.inbox.split(b"\n")
        self.inbox = rest
        return written, [line.decode() for line in lines]

    def request(self, line, timeout=STALL_S):
        """Sends one control line and returns the next response line."""
        self.send(None, line)
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            _, lines = self.pump(0.05)
            if lines:
                return json.loads(lines[0])
        raise TimeoutError(f"no reply to {line}")


def closed_loop(client, jobs, seconds, transcript, spans=None):
    """Keeps OUTSTANDING jobs in flight for `seconds`, then drains.
    Latency is timed from the request line written to the response line
    read.  With `spans`, one span per job is recorded in memory."""
    start = time.perf_counter()
    in_flight = {}   # id -> (key, time the line was fully written)
    sent = 0
    last_progress = start
    while True:
        now = time.perf_counter()
        while len(in_flight) < OUTSTANDING and now - start < seconds:
            job = jobs[sent % len(jobs)]
            job_id = f"{transcript.prefix}{sent}"
            client.send(job_id, '{"op":"submit","id":"%s",%s' % (job_id,
                                                                job.body))
            transcript.submitted.append(job_id)
            in_flight[job_id] = (job.key, None)
            sent += 1
        if not in_flight:
            return
        written, lines = client.pump(0.05)
        now = time.perf_counter()
        for job_id in written:
            in_flight[job_id] = (in_flight[job_id][0], now)
        for line in lines:
            last_progress = now
            response = json.loads(line)
            job_id = response.get("id")
            if job_id not in in_flight:
                transcript.stray.append(response)
                continue
            key, t_sent = in_flight.pop(job_id)
            transcript.answers.append(
                Answer(job_id, key, t_sent or now, now, response))
            if spans is not None:
                spans.append({"name": "service.job",
                              "start_s": (t_sent or now) - start,
                              "end_s": now - start, "request": job_id,
                              "counters": {
                                  "queue_ms": response.get("queue_ms", 0.0),
                                  "exec_ms": response.get("exec_ms", 0.0)}})
        if now - last_progress > STALL_S:
            transcript.stalled = True
            return


def probe_setup(tools, work):
    """Start to first `stats` reply, over SETUP_PROBES fresh servers."""
    ready = []
    for _ in range(SETUP_PROBES):
        server = procs.Piped([tools.prop_serve, "--workers", str(WORKERS)],
                             os.path.join(work, "probe.err"))
        try:
            Client(server).request('{"op":"stats"}')
            ready.append(time.perf_counter() - server.start)
        finally:
            server.close()
    return ready


def check(transcript, jobs):
    """Rescores the first answer of every job and requires every later
    answer to the same job to carry the same partition and cost.  Returns
    (rescored cost per job key, error list)."""
    errors, first, costs, graphs = [], {}, {}, {}
    for a in transcript.answers:
        r = a.response
        if r.get("state") != "done":
            continue
        claim = (r.get("partition", ""), r["result"]["best_cut"])
        if a.key in first:
            if claim != first[a.key]:
                errors.append(f"{a.job_id}: answer differs from an earlier "
                              "answer to the same job")
            continue
        first[a.key] = claim
        job = jobs[a.key]
        if job.hgr_path not in graphs:
            graphs[job.hgr_path] = checker.read_hgr(job.hgr_path)
        costs[a.key], errs = checker.check(graphs[job.hgr_path],
                                           checker.decode_side(claim[0]),
                                           job.k, claim[1])
        errors += [f"{a.job_id}: checker: {e}" for e in errs]
    return costs, errors


def pass_walls(transcript, jobs):
    """Wall time of each complete pass over the job set: first request
    written to last response read."""
    n = len(jobs)
    passes = {}
    for a in transcript.answers:
        p = int(a.job_id[len(transcript.prefix):]) // n
        lo, hi, count = passes.get(p, (a.sent, a.received, 0))
        passes[p] = (min(lo, a.sent), max(hi, a.received), count + 1)
    return [hi - lo for lo, hi, count in passes.values() if count == n]


class Run:
    def __init__(self, tools, work, seed):
        self.tools, self.work, self.seed = tools, work, seed
        self.rng = random.Random(seed)

    def generate(self):
        circuits = {}
        for name in BUNDLED:
            path = os.path.join(self.work, f"{name}.hgr")
            self.tools.circuit(name, path)
            circuits[name] = path
        inline = []
        for i, nodes in enumerate(inline_sizes(self.rng)):
            path = os.path.join(self.work, f"inline{i}.hgr")
            self.tools.gen(nodes, self.seed * 1000 + i, path)
            inline.append(path)
        self.inline = inline
        self.jobs = make_jobs(self.rng, circuits, inline)

    def serve(self, phases):
        """Starts one server and runs each (seconds, spans) phase of the
        closed loop on it.  Returns (transcripts, stats reply, set-up
        sample, peak RSS)."""
        server = procs.Piped([self.tools.prop_serve, "--workers",
                              str(WORKERS)],
                             os.path.join(self.work, "serve.err"))
        try:
            client = Client(server)
            client.request('{"op":"stats"}')
            ready = time.perf_counter() - server.start
            transcripts = []
            for phase, (seconds, spans) in enumerate(phases):
                t = Transcript(f"p{phase}-")
                closed_loop(client, self.jobs, seconds, t, spans)
                transcripts.append(t)
            server_stats = client.request('{"op":"stats"}')
            client.request('{"op":"shutdown"}')
        finally:
            server.close()
        if server.returncode != 0:
            raise RuntimeError(f"prop_serve exited {server.returncode}")
        return transcripts, server_stats, ready, server.peak_rss_mb

    def score(self, transcript):
        counts = tally(transcript.submitted,
                       [a.response for a in transcript.answers] +
                       transcript.stray)
        costs, errors = check(transcript, self.jobs)
        if transcript.stalled:
            errors.append(f"no response for {STALL_S} s")
        return counts, costs, errors

    def end_to_end(self, seconds):
        self.generate()
        ready = probe_setup(self.tools, self.work)
        (t,), _, main_ready, rss = self.serve([(seconds, None)])
        ready.append(main_ready)
        counts, costs, errors = self.score(t)
        # A job that did not finish counts as missing any latency limit.
        latencies = [1e3 * (a.received - a.sent) if
                     a.response.get("state") == "done" else float("inf")
                     for a in t.answers]
        latencies += [float("inf")] * counts["missing"]
        done = [a for a in t.answers if a.response.get("state") == "done"]
        span = (max(a.received for a in done) - min(a.sent for a in done)
                if done else 0.0)
        tail_p, tail = stats.tail(latencies, TAIL_PERCENTILE)
        walls = pass_walls(t, self.jobs)
        best = [c for c in costs.values() if c is not None]
        failed = counts["bad"] + len(errors)
        values = {
            "setup_s": stats.median(ready),
            "wall_s": stats.mean(walls),
            "best_cost": sum(best),
            "mean_cost": sum(best) / len(best) if best else 0.0,
            "peak_rss_mb": rss,
            "jobs_per_s": len(done) / span if span else 0.0,
            "latency_ms_p50": stats.median(latencies),
            "latency_ms_p95": tail,
            "success_ratio": (counts["attempted"] - min(failed,
                              counts["attempted"])) / counts["attempted"],
        }
        notes = [f"jobs: {counts['attempted']} submitted, {len(done)} done, "
                 f"{len(self.jobs)} distinct; latency tail is p{tail_p} of "
                 f"{len(latencies)} samples; {len(walls)} complete passes",
                 f"set-up samples: {len(ready)}"] + errors[:20]
        return values, counts["attempted"], failed, notes

    def traced(self, seconds, catalogue, trace_dir):
        """Half the time untraced, half recording one span per job; the
        difference of their median latencies is the tracing overhead."""
        self.generate()
        spans = []
        (plain, traced), server_stats, _, _ = self.serve(
            [(seconds / 2, None), (seconds / 2, spans)])
        errors = []
        for t in (plain, traced):
            counts, _, errs = self.score(t)
            errors += errs
            if counts["bad"]:
                errors.append(f"{counts['bad']} failed jobs: {counts}")
        with open(os.path.join(trace_dir, "serve-spans.json"), "w") as f:
            json.dump(spans, f)
        # The server parses inline payloads inside the job; the same parse
        # is timed here on the same bytes.
        listing = os.path.join(trace_dir, "inline.txt")
        with open(listing, "w") as f:
            f.write("".join(p + "\n" for p in self.inline))
        doc = self.tools.trace(["ingest", "--hgr-list", listing],
                               os.path.join(trace_dir, "ingest.json"))
        m = layers.serve(catalogue, [doc])
        answers = [a for t in (plain, traced) for a in t.answers
                   if a.response.get("state") == "done"]
        queue = [a.response["queue_ms"] for a in answers]
        execute = [a.response["exec_ms"] for a in answers]
        overhead = [1e3 * (a.received - a.sent) - a.response["queue_ms"] -
                    a.response["exec_ms"] for a in answers]
        m["service.queue_ms_p50"] = stats.median(queue)
        m["service.queue_ms_p95"] = stats.tail(queue, TAIL_PERCENTILE)[1]
        m["service.exec_ms_p50"] = stats.median(execute)
        m["service.exec_ms_p95"] = stats.tail(execute, TAIL_PERCENTILE)[1]
        m["service.overhead_ms_p50"] = stats.median(overhead)
        m["service.max_queue_depth"] = server_stats["max_queue_depth"]
        m["service.shed"] = server_stats["shed"]
        m["service.retries"] = server_stats["retries"]
        # An FM job's run is the FM pass engine plus a random start; its
        # pass counters are not visible from outside the server.  Summed
        # over the distinct FM jobs, first answer each.
        fm_runs = {a.key: a.response["result"]["run_records"]
                   for a in reversed(answers) if self.jobs[a.key].algo == "fm"}
        m["fm.refine_s"] = sum(rec["wall_seconds"]
                               for records in fm_runs.values()
                               for rec in records)
        plain_s, traced_s = (stats.median([a.received - a.sent
                                           for a in t.answers])
                             for t in (plain, traced))
        m["trace.overhead_s"] = traced_s - plain_s
        return m, len(plain.submitted) + len(traced.submitted), errors, []
