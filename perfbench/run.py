#!/usr/bin/env python3
"""The wdsparql benchmark: cold CLI runs, wdEVAL on the paper's wide
families and store updates, measured end to end (untraced runs) and layer
by layer (a separate traced replay).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0

It builds the CLI with dune, and the benchmark's helpers (perfbench/_helper,
a dune project of their own) in a workspace under .perfbench/. It
generates the workload's inputs from the seed into a scratch directory
under .perfbench/, drives spawned `wdsparql` processes for --seconds
seconds, checks every answer against the reference evaluators, and prints
one JSON object as its last line: {"correct", "attempted", "failed",
"metrics"}. The line before it records the run's context (seed, host
cores, revision, tail percentile and sample counts, and in traced runs
the literal probe). Every result is also appended to
.perfbench/results.jsonl, which perfbench/compare.py reads.

Workloads, metrics and the layer -> end-to-end predictions are described
in perfbench/README.md.
"""

#!/usr/bin/env python3
import argparse
import collections
import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.parse

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, ".perfbench")
CLI = os.path.join(ROOT, "_build", "default", "bin", "wdsparql.exe")
HELPER_SRC = os.path.join(ROOT, "perfbench", "_helper")
HELPER_WS = os.path.join(BENCH, "helper")
HELPER = os.path.join(HELPER_WS, "_build", "default", "wdbench.exe")
TRACER = os.path.join(HELPER_WS, "_build", "default", "wdtrace.exe")

WORKLOADS = ("cli-cold", "wdeval-wide", "store-update")

SERVER_WORKERS = 2

FAILED_MS = 1e6  # a failed op misses every latency limit


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------- stats


def percentile(values, p):
    xs = sorted(values)
    if not xs:
        return 0.0
    r = (p / 100.0) * (len(xs) - 1)
    lo = int(r)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (r - lo)


def tail(values):
    """The highest whole percentile with at least ten samples beyond it
    (at least the median)."""
    n = len(values)
    p = 50
    while p < 99 and n * (100 - (p + 1)) >= 1000:
        p += 1
    return float(p), percentile(values, p)


def median(xs):
    return statistics.median(xs) if xs else 0.0


# ------------------------------------------------------------ answers


def norm_text_term(t):
    """A term as the CLI prints it -> the canonical term text."""
    if t.startswith("<") and t.endswith(">"):
        t = t[1:-1]
    elif t.startswith('"'):
        end = t.rindex('"')
        value, rest = t[1:end], t[end + 1:]
        return '"%s"%s' % (value, rest)
    if t.startswith("urn:lit:"):
        body = t[len("urn:lit:"):]
        cut = min([i for i in (body.find("@"), body.find("^")) if i >= 0], default=-1)
        if cut < 0:
            return '"%s"' % urllib.parse.unquote(body)
        value = urllib.parse.unquote(body[:cut])
        if body[cut] == "@":
            return '"%s"@%s' % (value, urllib.parse.unquote(body[cut + 1:]))
        return '"%s"^^<%s>' % (value, urllib.parse.unquote(body[cut + 1:]))
    return "<%s>" % t


def json_term(b):
    """A SPARQL 1.1 JSON results term -> the canonical term text."""
    if b.get("type") == "uri":
        return "<%s>" % b["value"]
    if b.get("type") == "literal":
        if "xml:lang" in b:
            return '"%s"@%s' % (b["value"], b["xml:lang"])
        if "datatype" in b:
            return '"%s"^^<%s>' % (b["value"], b["datatype"])
        return '"%s"' % b["value"]
    return "?%s" % json.dumps(b, sort_keys=True)


def row_digest(rows):
    total = 0
    for r in rows:
        total += int.from_bytes(hashlib.md5(r.encode()).digest()[:8], "little")
    return "%016x" % (total % (1 << 64))


def row_of(pairs):
    return " ".join("?%s=%s" % (v, t) for v, t in sorted(pairs))


def cli_rows(out):
    """Rows of `wdsparql eval` text output: a count line, then one
    `{?v ↦ term, ...}` group per solution (groups may wrap lines)."""
    head, _, body = out.decode().partition("\n")
    if not head.endswith("solution(s)"):
        return None
    rows = []
    for inner in re.findall(r"\{([^{}]*)\}", body):
        pairs = []
        for b in re.split(r",\s*(?=\?)", inner.strip()):
            if b:
                v, t = b.strip().lstrip("?").split(" ↦ ", 1)
                pairs.append((v, norm_text_term(t.strip())))
        rows.append(row_of(pairs))
    if len(rows) != int(head.split()[0]):
        return None
    return rows


def json_rows(body):
    doc = json.loads(body)
    return [row_of([(v, json_term(t)) for v, t in b.items()])
            for b in doc["results"]["bindings"]]


class Checker:
    """Compares outputs with expected.tsv; identical outputs for one key
    are verified once."""

    def __init__(self, paths):
        self.expected = {}
        for path in paths:
            with open(path) as f:
                for line in f:
                    key, rows, dg = line.rstrip("\n").split("\t")
                    self.expected[key] = (int(rows), dg)
        self.seen = {}

    def check(self, key, kind, output, parse):
        memo = (key, output if kind == "check" else hashlib.md5(output).hexdigest())
        if memo not in self.seen:
            self.seen[memo] = self._check(key, kind, output, parse)
        return self.seen[memo]

    def _check(self, key, kind, output, parse):
        rows, dg = self.expected[key]
        if kind == "check":
            return output == rows
        try:
            got = parse(output)
        except (ValueError, KeyError, IndexError):
            return False
        return got is not None and len(got) == rows and row_digest(got) == dg


# ------------------------------------------------------------- setup


def dune_build(root, *targets):
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", root, *targets], env=env,
                       stdout=subprocess.DEVNULL)
    if r.returncode != 0:
        die("build failed", 3)


def build(trace):
    """The CLI, then the helpers in their own workspace: a copy of
    perfbench/_helper with the checkout's lib/ linked beside it (the
    helpers use the repository's libraries, which are private to a dune
    project)."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "bin"))
            and os.path.isdir(os.path.join(ROOT, "lib"))
            and os.path.isdir(HELPER_SRC)):
        die("run from the root of a wdsparql source checkout")
    dune_build(ROOT, "bin/wdsparql.exe")
    os.makedirs(HELPER_WS, exist_ok=True)
    for f in os.listdir(HELPER_SRC):
        shutil.copyfile(os.path.join(HELPER_SRC, f), os.path.join(HELPER_WS, f))
    lib = os.path.join(HELPER_WS, "lib")
    if not os.path.islink(lib):
        os.symlink(os.path.join(ROOT, "lib"), lib)
    dune_build(HELPER_WS, "./wdbench.exe", *(["./wdtrace.exe"] if trace else []))


def revision():
    """The git commit, or in a checkout without .git a digest of the
    program's sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    for top in ("bin", "lib"):
        for d, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for f in sorted(files):
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(f.encode() + fh.read())
    return "src-" + h.hexdigest()[:12]


def helper(exe, *args):
    r = subprocess.run([exe] + [str(a) for a in args])
    if r.returncode != 0:
        die("%s %s failed" % (os.path.basename(exe), args[0]), 4)


def read_ops(work):
    ops = []
    with open(os.path.join(work, "ops.tsv")) as f:
        for line in f:
            i, cls, kind, data, query, arg, key, rnd = line.rstrip("\n").split("\t")
            ops.append(dict(id=int(i), cls=cls, kind=kind, data=data,
                            query=query, arg=arg, key=key, round=int(rnd)))
    return ops


def write_ids(path, ids):
    with open(path, "w") as f:
        f.write("".join("%d\n" % i for i in ids))
    return path


def expect(work, ids, cache):
    """Expected answers of the listed ops, computed once the timing is
    over by two helper processes, one per part of the op sequence. The
    second also replays the first part's appends, so it gets the
    smaller part."""
    ids = sorted(ids)
    cut = len(ids) * 3 // 5
    parts = [ids[:cut], ids[cut:]]
    procs, outs = [], []
    for k, part in enumerate(parts):
        path = os.path.join(work, "expect%d" % k)
        outs.append(path + ".tsv")
        procs.append(subprocess.Popen(
            [HELPER, "expect", work, write_ids(path + ".ids", part), cache, outs[-1]]))
    if any([p.wait() != 0 for p in procs]):
        die("wdbench expect failed", 4)
    return Checker(outs)


# ------------------------------------------------------------ CLI ops


def spawn(cmd, cwd):
    """Run to exit, reading all output; returns (seconds, status, stdout,
    peak RSS in MB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    dt = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return dt, p.returncode, out, ru.ru_maxrss / 1024.0


def op_command(op):
    data = op["data"]
    src = ["--store", data] if data.endswith(".wds") else ["--data", data]
    if op["kind"] == "eval":
        return [CLI, "eval"] + src + ["-q", op["query"]]
    if op["kind"] == "check":
        return [CLI, "check"] + src + ["-q", op["query"], "-m", op["arg"]]
    if op["kind"] == "append":
        return [CLI, "append", data, "--add", op["query"]]
    if op["kind"] == "compact":
        return [CLI, "compact", data]
    raise ValueError(op["kind"])


def run_cli_op(op, work):
    """One spawned op: (seconds, ok-so-far, output to check, rss)."""
    dt, code, out, rss = spawn(op_command(op), work)
    if op["kind"] == "check":
        if code not in (0, 1):
            return dt, False, None, rss
        return dt, True, 1 if code == 0 else 0, rss
    return dt, code == 0, out, rss


def closed_loop(ops, work, seconds):
    """Spawn ops in order until --seconds of wall time have passed and a
    round of the op plan is complete, so the class mix is exact.
    Returns per-op records and the gaps between ops."""
    recs, gaps = [], []
    start = time.perf_counter()
    last_end = None
    for op in ops:
        now = time.perf_counter()
        if now - start >= seconds and op["round"] != recs[-1]["op"]["round"]:
            break
        if last_end is not None:
            gaps.append(now - last_end)
        dt, ok, out, rss = run_cli_op(op, work)
        last_end = time.perf_counter()
        recs.append(dict(op=op, ms=dt * 1000.0, ok=ok, out=out, rss=rss))
    else:
        die("op plan exhausted before --seconds; lengthen it in wdbench.ml")
    return recs, gaps


def verify(recs, checker):
    """Check every answering op; appends and compactions are checked
    through the reads of the state they leave."""
    for r in recs:
        op = r["op"]
        if r["ok"] and op["key"]:
            r["ok"] = checker.check(op["key"], op["kind"], r["out"], cli_rows)


def latency_summary(ms, ok):
    vals = [m if good else FAILED_MS for m, good in zip(ms, ok)]
    p, t = tail(vals)
    return dict(p50=percentile(vals, 50), tail=t, tail_pct=p,
                samples=len(vals), beyond=len(vals) * (100 - int(p)) // 100)


def median_of(fn, reps):
    return median([fn() for _ in range(reps)])


def spawn_cost(work):
    """Set-up of a cold op: a fresh process that parses a query and
    exits, with no data to load."""
    cmd = [CLI, "validate", "-q", "{ ?s p:q ?o OPTIONAL { ?o p:q ?z } }"]
    return median_of(lambda: spawn(cmd, work)[0], 31)


def compile_store(work):
    def once():
        dt, code, _, _ = spawn([CLI, "compile", "social.ttl", "-o", "store.wds",
                                "--force"], work)
        if code != 0:
            die("compile failed", 4)
        return dt
    return median_of(once, 3)


# ------------------------------------------------------------- server


class Server:
    def __init__(self, work, data):
        self.proc = subprocess.Popen(
            [CLI, "serve", *data, "--port", "0", "--workers",
             str(SERVER_WORKERS)],
            cwd=work, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = self.proc.stdout.readline().decode()
        if "listening on http://" not in line:
            self.stop()
            die("server did not start", 4)
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def request(self, path, timeout=30):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def sparql(self, text):
        return self.request("/sparql?query=" + urllib.parse.quote(text))

    def stats(self):
        return json.loads(self.request("/stats")[1])

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()


def query_text(work, op):
    with open(os.path.join(work, op["query"])) as f:
        return f.read()


def phase_ok(recs, checker):
    for r in recs:
        r["ok"] = r["status"] == 200 and checker.check(
            r["op"]["key"], "http", r["body"], json_rows)
        r["body"] = None


# ----------------------------------------------------------- workloads


def prepare(workload, seed, work):
    """The workload's op plan, and apart from it the literal probe."""
    helper(HELPER, "gen", workload, seed, work)
    ops = read_ops(work)
    return ([o for o in ops if o["cls"] != "literal"],
            [o for o in ops if o["cls"] == "literal"])


def cold(workload, seed, seconds, work, cache):
    ops, _ = prepare(workload, seed, work)
    if workload == "store-update":
        setup = compile_store(work)
    else:
        setup = spawn_cost(work)
    recs, _ = closed_loop(ops, work, seconds)
    checker = expect(work, [r["op"]["id"] for r in recs], cache)
    verify(recs, checker)
    ms = [r["ms"] for r in recs]
    ok = [r["ok"] for r in recs]
    lat = latency_summary(ms, ok)
    metrics = dict(
        setup_s=(setup, "s"),
        latency_p50_ms=(lat["p50"], "ms"),
        latency_tail_ms=(lat["tail"], "ms"),
        throughput_ops=(len(recs) / (sum(ms) / 1000.0), "ops/s"),
        peak_rss_mb=(max(r["rss"] for r in recs), "MB"),
    )
    info = dict(tail_percentile=lat["tail_pct"], samples=lat["samples"],
                beyond_tail=lat["beyond"],
                classes=class_summary(recs),
                error_rate=ok.count(False) / len(ok))
    return recs, metrics, info


def class_summary(recs):
    """Per query class: op count and median latency."""
    out = {}
    for c in sorted({r["op"]["cls"] for r in recs}):
        ms = [r["ms"] for r in recs if r["op"]["cls"] == c]
        out[c] = dict(n=len(ms), p50_ms=round(median(ms), 3))
    return out


# -------------------------------------------------------------- trace
#
# The traced run (--trace 1) gives the per-layer metrics of a workload, in
# three phases on the workload's own inputs:
#
# 1. CLI phase: spawned `wdsparql` ops of the workload's op plan, timed
#    spawn -> exit.
# 2. Server phase: `wdsparql serve` on the workload's data, sent each
#    distinct eval query of the CLI phase once warm, one at a time; then
#    the literal probe, on a server over the social data.
# 3. Replay: the wdtrace helper re-runs the CLI-phase ops in process (a
#    short warm-up, an untraced pass, a traced pass), then the
#    server-phase requests on warm plans, each after one warm-up
#    evaluation, then probes of the layers the workload's path does not
#    call, all on the same inputs. Spans and counters come back as TSV.
#
# A layer's time per op is the summed self time (duration minus the part
# covered by child spans) of its spans in that op; a metric is the median
# over the ops that have the layer. End-to-end metrics never come from
# this run.

# layer span -> per-layer metric
SPAN_METRICS = {
    "rdf.parse": "rdf.parse_ms",
    "encoded.encode": "encoded.encode_ms",
    "storage.compile": "storage.compile_ms",
    "storage.load": "storage.load_ms",
    "storage.append": "storage.append_ms",
    "storage.compact": "storage.compact_ms",
    "sparql.parse": "sparql.parse_ms",
    "sparql.print": "sparql.print_ms",
    "analysis.prune": "analysis.prune_ms",
    "analysis.canonical": "analysis.canonical_ms",
    "analysis.width_est": "analysis.width_est_ms",
    "core.plan": "core.plan_ms",
    "core.eval": "core.eval_ms",
}

# counters whose per-op median is the metric
COUNT_METRICS = (
    "storage.bytes_per_triple", "storage.append_bytes_per_triple",
    "storage.chain_len", "sparql.print_bytes", "analysis.width_est_ticks",
    "core.plan_ticks", "core.plan_dw", "core.eval_ticks", "core.answers",
    "core.pebble_lookups", "core.games_compiled", "core.hom_sources",
)

# ratios of counter totals
RATIO_METRICS = {
    "core.pebble_hit_rate": ("core.pebble_hits", "core.pebble_lookups"),
    "core.decision_hit_rate": ("core.decision_hits", "core.decision_lookups"),
}

UNITS = {"ms": "ms", "bytes_per_triple": "B/triple", "bytes": "B",
         "ticks": "ticks", "pct": "%", "rate": "ratio"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def read_tsv(path):
    with open(path) as f:
        return [line.rstrip("\n").split("\t") for line in f if line.strip()]


def self_times(spans):
    """(op, span name) -> summed self time in ms, and per-op records of
    the "op" root spans: (duration, duration not covered by children)."""
    children = collections.defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    self_ms = collections.defaultdict(float)
    roots = {}
    for s in spans:
        cover, end = 0.0, s["t0"]
        for c in sorted(children[s["id"]], key=lambda c: c["t0"]):
            lo, hi = max(c["t0"], end), min(c["t1"], s["t1"])
            if hi > lo:
                cover += hi - lo
                end = hi
        own = (s["t1"] - s["t0"] - cover) * 1000.0
        if s["name"] == "op":
            roots[s["op"]] = ((s["t1"] - s["t0"]) * 1000.0, own)
        else:
            self_ms[(s["op"], s["name"])] += own
    return self_ms, roots


def server_data(workload, ops):
    if workload == "store-update":
        return ("--store", "store.wds")
    return ("--data", next(o["data"] for o in ops if o["kind"] == "eval"))


def send_once(server, work, o):
    text = query_text(work, o)
    t0 = time.perf_counter()
    status, body = server.sparql(text)
    return dict(op=o, ms=(time.perf_counter() - t0) * 1000.0, status=status,
                body=body, size=len(body))


def server_phase(workload, work, recs):
    """Each distinct eval query of the state the CLI phase left, sent
    once to warm the server and once timed. Queries selecting p:name
    literals are held out: the literal probe covers them."""
    # store-update's server reads the store the CLI phase left behind,
    # so only the reads of that final state are sent
    final = recs
    if workload == "store-update":
        last = max(i for i, r in enumerate(recs) if r["op"]["kind"] == "append")
        final = recs[last + 1:]
    distinct, held_out = {}, set()
    for r in final:
        o = r["op"]
        if o["kind"] == "eval":
            if "p:name" in query_text(work, o):
                held_out.add(o["key"])
            else:
                distinct.setdefault(o["key"], o)
    server = Server(work, server_data(workload, [r["op"] for r in recs]))
    try:
        stats0 = server.stats()
        sreqs = []
        for o in distinct.values():
            server.sparql(query_text(work, o))
            sreqs.append(send_once(server, work, o))
        stats1 = server.stats()
    finally:
        server.stop()
    return sreqs, stats0, stats1, len(held_out)


def literal_probe(work, probe):
    """The literal-selecting requests, sent to a server over the social
    data after the traced phases and checked like every other answer.
    They expose the server's known literal defect, so they are reported
    beside the result rather than counted in `failed`."""
    server = Server(work, ("--data", "social.ttl"))
    try:
        recs = [send_once(server, work, o) for o in probe]
    finally:
        server.stop()
    # how the server spells the first name it returns
    observed = next((b.get("n") for r in recs if r["status"] == 200
                     for b in json.loads(r["body"])["results"]["bindings"]), None)
    return recs, observed


def traced(workload, seed, seconds, work, cache):
    ops, probe = prepare(workload, seed, work)
    if workload == "store-update":
        compile_store(work)
        shutil.copy(os.path.join(work, "store.wds"), os.path.join(work, "store.base"))

    # 1. CLI phase, 2. server phase and the literal probe
    recs, gaps = closed_loop(ops, work, seconds * 0.4)
    sreqs, stats0, stats1, held_out = server_phase(workload, work, recs)
    lit, observed = literal_probe(work, probe)

    # answers of every phase
    checker = expect(work, [r["op"]["id"] for r in recs + sreqs + lit], cache)
    verify(recs, checker)
    phase_ok(sreqs, checker)
    phase_ok(lit, checker)

    # 3. replay
    out = os.path.join(work, "trace")
    os.makedirs(out, exist_ok=True)
    helper(TRACER, work,
           write_ids(os.path.join(work, "cli.ids"), [r["op"]["id"] for r in recs]),
           write_ids(os.path.join(work, "req.ids"), [r["op"]["id"] for r in sreqs]),
           out)
    spans = [dict(op=int(o), id=int(i), parent=int(p), name=n, t0=float(a), t1=float(b))
             for o, i, p, n, a, b in read_tsv(os.path.join(out, "spans.tsv"))]
    counters = collections.defaultdict(lambda: collections.defaultdict(float))
    for o, n, v in read_tsv(os.path.join(out, "counters.tsv")):
        counters[n][int(o)] += float(v)
    op_ms = {(int(i), int(t)): float(s) * 1000.0
             for i, t, s in read_tsv(os.path.join(out, "ops.tsv"))}
    req_ms = {int(i): float(s) * 1000.0
              for i, s in read_tsv(os.path.join(out, "requests.tsv"))}

    metrics = {}
    self_ms, roots = self_times(spans)
    per_layer = collections.defaultdict(list)
    for (op, name), ms in self_ms.items():
        per_layer[name].append(ms)
    for span, metric in SPAN_METRICS.items():
        metrics[metric] = median(per_layer.get(span, []))
    for name in COUNT_METRICS:
        metrics[name] = median(list(counters[name].values()))
    for name, (num, den) in RATIO_METRICS.items():
        d = sum(counters[den].values())
        metrics[name] = sum(counters[num].values()) / d if d else 0.0

    # server layer: latency beyond the in-process warm parse -> eval time
    # of the same request, and the /stats deltas of the phase
    overhead = [r["ms"] - req_ms[r["op"]["id"]] for r in sreqs
                if r["status"] == 200 and r["op"]["id"] in req_ms]
    metrics["server.overhead_ms"] = median(overhead)
    pc0, pc1 = stats0["plan_cache"], stats1["plan_cache"]
    hits = pc1["entry_hits"] - pc0["entry_hits"]
    compiled = pc1["compiled"] - pc0["compiled"]
    metrics["server.plan_hit_rate"] = hits / (hits + compiled) if hits + compiled else 0.0
    metrics["server.canonical_hits"] = float(pc1["canonical_hits"] - pc0["canonical_hits"])
    metrics["server.shed"] = float(
        sum(stats1["admission"][k] - stats0["admission"][k]
            for k in ("shed_inflight", "shed_tokens", "shed_queue")))
    metrics["server.response_bytes"] = median([r["size"] for r in sreqs])

    # process start-up, exit and output: spawned wall time beyond the
    # untraced in-process replay of the same op
    metrics["cli.process_ms"] = median(
        [r["ms"] - op_ms[(r["op"]["id"], 0)] for r in recs
         if (r["op"]["id"], 0) in op_ms])

    # benchmark health: the gap between consecutive ops of the closed
    # loop, the tracing overhead and the op time no span covers
    metrics["gen.late_ms"] = median([g * 1000.0 for g in gaps] or [0.0])
    untraced = sum(v for (i, t), v in op_ms.items() if t == 0)
    traced_ms = sum(v for (i, t), v in op_ms.items() if t == 1)
    metrics["trace.overhead_pct"] = (
        (traced_ms - untraced) / untraced * 100.0 if untraced else 0.0)
    total = sum(d for d, _ in roots.values() if d > 0)
    metrics["trace.unattributed_pct"] = (
        sum(u for d, u in roots.values()) / total * 100.0 if total else 0.0)

    attempted = len(recs) + len(sreqs)
    failed = len([r for r in recs + sreqs if not r["ok"]])
    lit_failed = len([r for r in lit if not r["ok"]])
    info = dict(
        cli_ops=len(recs), server_requests=len(sreqs), spans=len(spans),
        classes=class_summary(recs),
        literal_probe=dict(
            sent=len(lit), failed=lit_failed, held_out=held_out,
            cause=("the server answers the name literal \"...\"@en as %s"
                   % json.dumps(observed)) if lit_failed else None))
    return attempted, failed, {k: (v, unit_of(k)) for k, v in metrics.items()}, info


# --------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build(a.trace)
    os.makedirs(BENCH, exist_ok=True)
    cache = os.path.join(BENCH, "cache")
    os.makedirs(cache, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=BENCH)
    try:
        if a.trace:
            attempted, failed, metrics, info = traced(
                a.workload, a.seed, a.seconds, work, cache)
        else:
            recs, metrics, info = cold(a.workload, a.seed, a.seconds, work, cache)
            attempted = len(recs)
            failed = len([r for r in recs if not r["ok"]])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context = dict(workload=a.workload, seed=a.seed, seconds=a.seconds,
                   trace=a.trace, host_cores=os.cpu_count(),
                   revision=revision(), **info)
    result = dict(
        correct=failed == 0,
        attempted=attempted, failed=failed,
        metrics={k: dict(value=v, unit=u) for k, (v, u) in metrics.items()})
    with open(os.path.join(BENCH, "results.jsonl"), "a") as f:
        f.write(json.dumps(dict(context=context, result=result)) + "\n")
    print(json.dumps(dict(context=context)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
