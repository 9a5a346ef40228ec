#!/usr/bin/env python3
"""The hpl benchmark: cold CLI and churning daemon cache.

    python3 perfbench/run.py --workload cli-cold|serve-churn \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-golden

Run from the root of a source checkout. The benchmark builds bin/hpl.exe
and its own in-process replayer (perfbench/trace) with dune, makes the
request stream from --seed, checks every answer against golden.json and
prints one JSON result as the last line of stdout. --trace 0 reports the
end-to-end metrics; --trace 1 replays the same requests in process and
reports per-layer metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import catalog  # noqa: E402

HPL = "_build/default/bin/hpl.exe"
TRACE = "_build/default/perfbench/trace/trace.exe"
WORK = ".bench_work"
BENCH = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(BENCH, "golden.json")
REQUEST_TIMEOUT_S = 30.0

# Layers traced per workload must add up to the end-to-end time within
# this share of it; the remainder is printed as unattributed_share.
ACCOUNTING_TOLERANCE = 0.2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def now():
    return time.perf_counter()


def pct_index(xs, q):
    """Index of the nearest-rank q-th percentile of a non-empty list."""
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    return order[max(0, min(len(xs) - 1, -(-q * len(xs) // 100) - 1))]


def pct(xs, q):
    return xs[pct_index(xs, q)]


def digest(out, err, code):
    """What golden.json records for one answer (trace.ml computes the same)."""
    return hashlib.md5(f"{out}\0{err}\0{code}".encode()).hexdigest()


def anchors_ok(argv, text):
    return all(a in text for a in catalog.ANCHORS.get(catalog.query_key(argv), []))


class NoResult(Exception):
    """The run cannot report metrics (no correct answer, or it stopped)."""


class Checker:
    """Counts attempted and failed checks: every answer against the golden
    digests, every lost request, and the run's invariants."""

    def __init__(self, golden):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, argv, out, err, code):
        ok = self.expect(argv, digest(out, err, code), "", f" (exit {code})")
        if ok and not anchors_ok(argv, out):
            self.fail(f"`hpl {catalog.query_key(argv)}` contradicts a documented value")
            return False
        return ok

    def expect(self, argv, got, where="", detail=""):
        """Check one answer digest (from the CLI, the daemon or a replay)."""
        self.attempted += 1
        key = catalog.query_key(argv)
        if self.golden.get(key) != got:
            self.fail(f"wrong answer{where} for `hpl {key}`{detail}")
            return False
        return True

    def lost(self, note):
        """A request that got no answer (a timeout, a stopped run)."""
        self.attempted += 1
        self.fail(note)

    def require(self, cond, note):
        """One run-level invariant."""
        self.attempted += 1
        if not cond:
            self.fail(note)

    def fail(self, note):
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(note)
            log("FAIL: " + note)


# -- build and environment ----------------------------------------------------

def preflight():
    need = ["dune-project", "bin/hpl.ml", "lib/serve/serve.ml", "perfbench/trace/dune"]
    missing = [p for p in need if not os.path.exists(p)]
    if missing:
        log("perfbench: not an hpl source checkout (missing %s)" % ", ".join(missing))
        sys.exit(2)
    if shutil.which("dune") is None:
        log("perfbench: dune not found on PATH")
        sys.exit(2)


def build():
    p = subprocess.run(["dune", "build", "--root", ".", "./bin/hpl.exe",
                        "./perfbench/trace/trace.exe"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        log(p.stdout)
        log("perfbench: build failed")
        sys.exit(2)


def environment():
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                                text=True, timeout=5).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    if commit == "unknown":
        h = hashlib.sha1()
        for root in ("bin", "lib"):
            for d, _, files in sorted(os.walk(root)):
                for f in sorted(files):
                    with open(os.path.join(d, f), "rb") as fh:
                        h.update(fh.read())
        commit = "src-" + h.hexdigest()[:12]
    ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True,
                           text=True).stdout.strip() if shutil.which("ocamlfind") else "unknown"
    return {"nproc": os.cpu_count(), "commit": commit, "ocaml": ocaml,
            "machine": platform.machine()}


def reset_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def proc_status_kb(pid, field):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


# -- one CLI invocation ---------------------------------------------------------

class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


class Cli:
    """Runs fresh hpl processes one at a time, with stdout/stderr captured
    in files so that the child can be reaped with wait4 (its maxrss)."""

    def __init__(self):
        self.out = open(os.path.join(WORK, "cli.out"), "w+b")
        self.err = open(os.path.join(WORK, "cli.err"), "w+b")

    def run(self, argv):
        for f in (self.out, self.err):
            f.seek(0)
            f.truncate()
        actions = [(os.POSIX_SPAWN_DUP2, self.out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, self.err.fileno(), 2)]
        t0 = now()
        pid = os.posix_spawn(HPL, [HPL] + argv, os.environ, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
        try:
            _, status, ru = os.wait4(pid, 0)
        except Timeout:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = now() - t0
        code = os.waitstatus_to_exitcode(status)
        out = os.pread(self.out.fileno(), 1 << 24, 0)
        err = os.pread(self.err.fileno(), 1 << 24, 0)
        return wall, code, out.decode(), err.decode(), ru.ru_maxrss


# -- daemon connections -------------------------------------------------------

class Daemon:
    def __init__(self, args):
        self.p = subprocess.Popen([HPL, "serve"] + args, stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.w, self.r = self.p.stdin, self.p.stdout

    def send(self, req):
        self.w.write(json.dumps(req).encode() + b"\n")
        self.w.flush()

    def recv(self):
        line = self.r.readline()
        if not line:
            raise RuntimeError("daemon closed the connection")
        return json.loads(line)

    def call(self, req):
        signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
        try:
            self.send(req)
            return self.recv()
        except Timeout:
            raise RuntimeError(f"daemon did not reply within {REQUEST_TIMEOUT_S:g} s")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def rss_kb(self, field="VmRSS"):
        return proc_status_kb(self.p.pid, field)

    def stop(self):
        try:
            self.call({"op": "shutdown"})
        except (OSError, RuntimeError, ValueError):
            pass
        try:
            self.p.stdin.close()
        except OSError:
            pass
        try:
            self.p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.p.kill()
            self.p.wait()
        self.p.stdout.close()


def reply_fields(rep):
    return rep.get("answer") or "", rep.get("error") or "", rep.get("exit", -1)


# -- workloads -----------------------------------------------------------------

def summarize(lat_ms, classes, extra, windows):
    """Each percentile is the median over `windows` (lists of request
    indices) of the per-window percentile; the class printed is the
    request at that percentile in the lower median window."""
    out = dict(extra)
    for q in (50, 90, 99):
        at = sorted((lat_ms[i], i) for i in
                    (w[pct_index([lat_ms[j] for j in w], q)] for w in windows))
        out[f"p{q}"] = (statistics.median(v for v, _ in at), classes[at[(len(at) - 1) // 2][1]],
                        at[(len(at) - 1) // 2][1])
    return out


def cli_setup(seed):
    """Prepare the stream and check the binary starts: returns seconds."""
    cli = Cli()
    t0 = now()
    rng = catalog.seeded(seed, "cli")
    rounds = catalog.cli_rounds(rng, 64)
    for argv in (["--version"], ["list"]):
        r = cli.run(argv)
        if r is None or r[1] != 0:
            raise RuntimeError("hpl does not start")
    return now() - t0, cli, rounds


def run_cli_cold(args, chk, after=None):
    """The closed loop, in whole rounds until `--seconds` have passed.
    Every figure is the median over windows of two rounds. `after(argv)`,
    when given, runs after each request and its time is left out."""
    setups = []
    for _ in range(5):
        s, cli, rounds = cli_setup(args.seed)
        setups.append(s)
    lat, classes, executed, rss, gaps, done, window = [], [], [], 0, [], [], []
    t_start = now()
    last_end = None
    hooks = 0.0
    for k, rnd in enumerate(rounds):
        if now() - t_start - hooks >= args.seconds:
            break
        for cls, argv in rnd:
            t_send = now()
            if last_end is not None:
                gaps.append((t_send - last_end) * 1e3)
            r = cli.run(argv)
            if r is None:
                chk.lost(f"timeout: hpl {catalog.query_key(argv)}")
                last_end = now()
                continue
            wall, code, out, err, maxrss = r
            last_end = now()
            if chk.check(argv, out, err, code):
                lat.append(wall * 1e3)
                classes.append(f"{cls}: {catalog.query_key(argv)}")
                executed.append(argv)
                done.append(last_end - t_start - hooks)
                window.append(k // 2)
                if after is not None:
                    after(argv)
                    hooks += now() - last_end
                    last_end = now()
            rss = max(rss, maxrss)
    windows = [[i for i, w in enumerate(window) if w == k] for k in range(k // 2 + 1)]
    windows = [w for w in windows if len(w) >= len(catalog.CLI_SLOTS)]
    if not windows:
        raise NoResult("no window of two rounds was answered correctly")
    tput, sust = [], []
    for w in windows:
        t0 = done[w[0] - 1] if w[0] > 0 else 0.0
        tput.append(len(w) / (done[w[-1]] - t0))
        sust.append(1e3 * len(w) / sum(lat[i] for i in w))
    res = summarize(lat, classes, {
        "setup_s": statistics.median(setups),
        "throughput_qps": statistics.median(tput),
        "sustained_qps": statistics.median(sust),
        "peak_rss_mb": rss / 1024.0,
        "n": len(lat),
    }, windows)
    return res, {"executed": executed, "lat_ms": lat, "gaps_ms": gaps}


def transport_probe(d):
    """Median round trip (us) of a `server-stats` frame, the cheapest
    request."""
    xs = []
    for _ in range(200):
        t0 = now()
        d.call({"op": "server-stats"})
        xs.append((now() - t0) * 1e6)
    return statistics.median(xs)


def churn_setup():
    t0 = now()
    cache = os.path.join(WORK, "churn-cache")
    reset_dir(cache)
    d = Daemon(["--pipe", "--cache-dir", cache, "--max-cached-states", str(catalog.CHURN_MAX_CACHED_STATES)])
    d.call({"op": "server-stats"})
    return now() - t0, d


def run_serve_churn(args, chk):
    """The closed loop until `--seconds` have passed. Every figure is the
    median over six equal time windows."""
    setups = []
    for k in range(5):
        s, d = churn_setup()
        setups.append(s)
        if k < 4:
            d.stop()
    rng = catalog.seeded(args.seed, "churn")
    lat, classes, executed, gaps, done, sent = [], [], [], [], [], 0
    try:
        rss0 = d.rss_kb()
        t_start = now()
        last_end = None
        pending = []
        while now() - t_start < args.seconds:
            if not pending:
                pending = catalog.churn_block(rng)
            cls, argv = pending.pop()
            t0 = now()
            if last_end is not None:
                gaps.append((t0 - last_end) * 1e3)
            rep = d.call(catalog.frame(argv))
            sent += 1
            t1 = now()
            last_end = t1
            ans, e, code = reply_fields(rep)
            if chk.check(argv, ans, e, code):
                lat.append((t1 - t0) * 1e3)
                classes.append(f"{cls}/{rep.get('source')}: {catalog.query_key(argv)}")
                executed.append(argv)
                done.append(t1 - t_start)
        counters = d.call({"op": "server-stats"})["counters"]
        hwm = d.rss_kb("VmHWM")
        rss1 = d.rss_kb()
        transport = transport_probe(d)
    finally:
        d.stop()
    chk.require(counters["cache_hit"] + counters["cache_miss"] == counters["requests"] == sent,
                f"cache counters broken after {sent} requests: {counters}")
    nwin = 6
    span = args.seconds / nwin
    windows = [[i for i, t in enumerate(done) if min(nwin - 1, int(t / span)) == k]
               for k in range(nwin)]
    windows = [w for w in windows if w]
    if not windows:
        raise NoResult("no request was answered correctly")
    tput = [len(w) / (done[w[-1]] - (done[w[0] - 1] if w[0] > 0 else 0.0)) for w in windows]
    res = summarize(lat, classes, {
        "setup_s": statistics.median(setups),
        "throughput_qps": statistics.median(tput),
        "sustained_qps": statistics.median(1e3 * len(w) / sum(lat[i] for i in w) for w in windows),
        "peak_rss_mb": hwm / 1024.0,
        "n": len(lat),
    }, windows)
    return res, {"executed": executed, "lat_ms": lat, "gaps_ms": gaps, "counters": counters,
                 "probe_us": transport, "service_us": [x * 1e3 for x in lat],
                 "rss_growth_b": (rss1 - rss0) * 1024.0}


# -- traced replay -----------------------------------------------------------

def write_lines(lines):
    path = os.path.join(WORK, "trace-in.jsonl")
    with open(path, "w") as f:
        for line in lines:
            f.write(json.dumps(line) + "\n")
    return path


def tracer(args_list, path):
    """Run trace.exe on the request file at `path` (FILE in `args_list`)."""
    p = subprocess.run([TRACE] + [a if a != "FILE" else path for a in args_list],
                       capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        raise RuntimeError("trace.exe failed: " + p.stderr.strip())
    return [json.loads(line) for line in p.stdout.splitlines() if line.strip()]


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


class Layers:
    """Per-layer sums and call counts over a traced replay."""

    def __init__(self):
        self.sum, self.calls = {}, {}

    def add(self, k, us):
        self.sum[k] = self.sum.get(k, 0.0) + us
        self.calls[k] = self.calls.get(k, 0) + 1

    def avg(self, k):
        return self.sum.get(k, 0.0) / self.calls[k] if self.calls.get(k) else 0.0

    def total(self, keys):
        return sum(self.sum.get(k, 0.0) for k in keys)


def startup_ms():
    cli = Cli()
    xs = []
    for _ in range(21):
        r = cli.run(["--version"])
        xs.append(r[0] * 1e3)
    return statistics.median(xs)


def replayed_layers(executed, rows, chk):
    """Check the replay's answers and sum its per-layer times."""
    L = Layers()
    for argv, row in zip(executed, rows):
        if row["digest"] is not None:
            chk.expect(argv, row["digest"], " from the replay")
        t = row["t"]
        for k, v in t.items():
            if k == "resolve":
                v = max(0.0, v - t.get("dsl", 0.0))  # Query.resolve loads the spec again
                if catalog.names_channel(argv):
                    L.add("resolve.named", v)
            L.add(k, v)
        if "enumerate" in t:
            L.sum["states"] = L.sum.get("states", 0.0) + row["states"]
    return L


def layer_metrics(L):
    """Every per-layer metric, those the replay's timings give filled in."""
    m = dict.fromkeys((x["name"] for x in spec()["per_layer"]), 0.0)
    for k in ("dsl", "resolve", "lint"):
        m[f"{k}.calls"] = L.calls.get(k, 0)
    for name, k in [("dsl.load_us", "dsl"), ("resolve.us", "resolve"),
                    ("resolve.named_channel_us", "resolve.named"), ("reduce.us", "reduce"),
                    ("enumerate.us", "enumerate"), ("lint.us", "lint"), ("flow.us", "flow"),
                    ("json.parse_us", "json.parse"), ("snapshot.load_us", "snapshot.load"),
                    ("snapshot.save_us", "snapshot.save"), ("snapshot.bytes", "snapshot.bytes")]:
        m[name] = L.avg(k)
    for op in ("knows", "check", "extent", "stats"):
        m[f"eval.{op}_us"] = L.avg(f"eval.{op}")
    m["enumerate.states"] = int(L.sum.get("states", 0))
    if L.sum.get("enumerate"):
        m["enumerate.states_per_s"] = L.sum["states"] / (L.sum["enumerate"] / 1e6)
        for ph in ("frontier", "intern", "merge"):
            m[f"enumerate.{ph}_us"] = L.sum.get(f"phase:enumerate.{ph}", 0.0) / L.calls["enumerate"]
    m["cli.startup_ms"] = startup_ms()
    return m


def trace_cli_cold(args, chk):
    # each request is replayed right after its CLI run, in a fresh
    # process of its own (as the CLI runs it, so both pay the same
    # cold-heap growth), untraced and then traced
    plain, traced = [], []

    def replay(argv):
        path = write_lines([{"argv": argv}])
        plain.extend(tracer(["cli", "FILE", "--plain"], path))
        traced.extend(tracer(["cli", "FILE"], path))

    args.seconds /= 3.0
    res, raw = run_cli_cold(args, chk, after=replay)
    executed = raw["executed"]
    L = replayed_layers(executed, traced, chk)
    m = layer_metrics(L)
    m["driver.late_p99_ms"] = pct(raw["gaps_ms"], 99)
    e2e_us = sum(raw["lat_ms"]) * 1e3
    layers = ["dsl", "resolve", "reduce", "enumerate", "eval.knows", "eval.check",
              "eval.extent", "eval.stats", "lint", "flow"]
    attributed = len(executed) * m["cli.startup_ms"] * 1e3 + L.total(layers)
    m["unattributed_share"] = 1.0 - attributed / e2e_us
    tp, tt = sum(r["total"] for r in plain), sum(r["total"] for r in traced)
    m["trace.overhead_pct"] = (tt - tp) / tp * 100.0
    return res, m


SERVE_LAYERS = ["json.parse", "dsl", "resolve", "reduce", "cache", "snapshot.load",
                "snapshot.save", "enumerate", "eval.knows", "eval.check", "eval.extent",
                "eval.stats"]


def trace_serve_churn(args, chk):
    """Run the workload, then replay the requests the daemon served:
    Serve.handle_line per request (a pass with observability on, then
    one with it off, each on a fresh server), then the same frames one
    layer call at a time; account both against the daemon's service
    times."""
    args.seconds /= 2.0
    res, raw = run_serve_churn(args, chk)
    budget = ["--max-cached-states", str(catalog.CHURN_MAX_CACHED_STATES)]
    hdir, ldir = os.path.join(WORK, "trace-handle"), os.path.join(WORK, "trace-layers")
    reset_dir(hdir)
    reset_dir(ldir)
    executed = raw["executed"]
    path = write_lines([catalog.frame(a) for a in executed])
    hrows = tracer(["handle", "FILE", "--cache-dir", hdir] + budget, path)
    lrows = tracer(["layers", "FILE", "--cache-dir", ldir] + budget, path)
    L = replayed_layers(executed, lrows, chk)
    m = layer_metrics(L)
    on = [r for r in hrows if "handle" in r and r["obs"]]
    off = [r for r in hrows if "handle" in r and not r["obs"]]
    for r in on + off:
        chk.expect(executed[r["i"]], r["digest"], " from Serve.handle_line")
    hs = [r["handle"] for r in on]
    m["serve.handle_p50_us"] = pct(hs, 50)
    m["serve.handle_p99_us"] = pct(hs, 99)
    render = sum(r["render"] for r in on)
    m["json.render_us"] = render / len(executed)
    m["json.bytes_out"] = mean([r["bytes"] for r in on])
    handle_on = sum(hs)
    handle_off = sum(r["handle"] for r in off)
    m["obs.overhead_pct"] = (handle_on - handle_off) / handle_off * 100.0
    service = raw["service_us"]
    m["transport.us"] = statistics.median(service[r["i"]] - r["handle"] for r in on)
    # the layer replay runs with observability off; the enumerate phase
    # totals come from the handle_line pass that had it on
    summary = [r for r in hrows if "phases" in r and r["obs"] and r["enumerations"] > 0]
    for r in summary:
        for ph in ("frontier", "intern", "merge"):
            m[f"enumerate.{ph}_us"] = r["phases"][f"phase:enumerate.{ph}"] / r["enumerations"]
    m["obs.bytes_per_request"] = raw["rss_growth_b"] / len(executed)
    # per request: the transport probe (a server-stats round trip), the
    # layer calls, the reply rendering and the observability overhead
    layers = L.total(SERVE_LAYERS)
    attributed = len(executed) * raw["probe_us"] + layers + render + (handle_on - handle_off)
    m["unattributed_share"] = 1.0 - attributed / sum(service)
    m["trace.overhead_pct"] = (layers + render - handle_off) / handle_off * 100.0
    c = raw["counters"]
    m["cache.hit_ratio"] = c["cache_hit"] / c["requests"]
    m["snapshot.load_ratio"] = c["snapshot_load"] / c["cache_miss"] if c["cache_miss"] else 0.0
    m["enumerate.miss_ratio"] = (c["cache_miss"] - c["snapshot_load"]) / c["requests"]
    m["cache.evictions"] = c["evictions"]
    m["cache.cached_states"] = c["cached_states"]
    m["driver.late_p99_ms"] = pct(raw["gaps_ms"], 99)
    return res, m


# -- golden answers ------------------------------------------------------------

def record_golden():
    """Record the digest of every distinct query from the CLI, check the
    daemon gives the same bytes and the documented values hold."""
    cli = Cli()
    golden, sizes = {}, {}
    qs = catalog.all_queries()
    d = Daemon(["--pipe"])
    try:
        for wl, queries in qs.items():
            for argv in queries:
                key = catalog.query_key(argv)
                if key in golden:
                    continue
                wall, code, out, err, _ = cli.run(argv)
                if code not in (0, 1):
                    raise SystemExit(f"`hpl {key}` exited {code}: {err}")
                if not anchors_ok(argv, out):
                    raise SystemExit(f"`hpl {key}` contradicts a documented value:\n{out}")
                golden[key] = digest(out, err, code)
                f = catalog.frame(argv)
                if f is not None:
                    rep = d.call(f)
                    if digest(*reply_fields(rep)) != golden[key]:
                        raise SystemExit(f"daemon and CLI differ on `hpl {key}`")
                    sizes[key] = rep["universe"]["size"]
                log(f"{wall * 1e3:8.1f} ms  exit {code}  {key}")
    finally:
        d.stop()
    for k in catalog.ANCHORS:
        if k not in golden:
            raise SystemExit(f"anchor query `hpl {k}` is in no workload")
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    churn = {catalog.query_key(["enumerate"] + k): None for k, _ in catalog.CHURN_KEYS}
    tot = sum(sizes[k] for k in churn)
    log(f"churn working set: {tot} states, largest {max(sizes[k] for k in churn)}")


# -- output --------------------------------------------------------------------

def spec():
    """BENCHMARK.json: the metric names and units."""
    with open("BENCHMARK.json") as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["cli-cold", "serve-churn"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _alarm)
    preflight()
    build()
    os.makedirs(WORK, exist_ok=True)
    if args.record_golden:
        record_golden()
        return
    if args.workload is None:
        ap.error("--workload is required")
    with open(GOLDEN) as f:
        chk = Checker(json.load(f))
    env = environment()
    run = {
        ("cli-cold", 0): lambda: (run_cli_cold(args, chk)[0], None),
        ("serve-churn", 0): lambda: (run_serve_churn(args, chk)[0], None),
        ("cli-cold", 1): lambda: trace_cli_cold(args, chk),
        ("serve-churn", 1): lambda: trace_serve_churn(args, chk),
    }[(args.workload, args.trace)]
    print(f"# hpl benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}  nproc={env['nproc']} commit={env['commit']} "
          f"ocaml={env['ocaml']} arch={env['machine']}")
    try:
        res, layers = run()
    except (NoResult, RuntimeError, subprocess.SubprocessError) as e:
        chk.lost(f"run stopped: {e}")
        finish(chk, {})
    e2e = {
        "setup_s": res["setup_s"],
        "throughput_qps": res["throughput_qps"],
        "latency_p50_ms": res["p50"][0],
        "latency_p90_ms": res["p90"][0],
        "latency_p99_ms": res["p99"][0],
        "sustained_qps": res["sustained_qps"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    bench = spec()
    print(f"# requests timed: {res['n']}")
    for m in bench["end_to_end"]:
        print(f"{m['name']:>28} {e2e[m['name']]:14.4f} {m['unit']}")
    for q in ("p50", "p90", "p99"):
        print(f"# class at {q}: {res[q][1]}")
    if layers is None:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    else:
        for m in bench["per_layer"]:
            print(f"{m['name']:>28} {layers[m['name']]:14.4f} {m['unit']}")
        u = layers["unattributed_share"]
        print(f"# layer accounting: unattributed {u * 100:.1f}% of end-to-end time "
              f"(tolerance {ACCOUNTING_TOLERANCE * 100:.0f}%)")
        chk.require(abs(u) <= ACCOUNTING_TOLERANCE,
                    f"traced layers leave {u * 100:.1f}% of end-to-end time unattributed, "
                    f"outside the {ACCOUNTING_TOLERANCE * 100:.0f}% tolerance")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    finish(chk, metrics)


def finish(chk, metrics):
    """Print the checks and the result line; a failed check fails the run."""
    print(f"# checks attempted: {chk.attempted}  failed: {chk.failed}")
    print(f"{'failed_share':>28} {chk.failed / max(1, chk.attempted):14.4f} share")
    for note in chk.notes:
        print("# " + note)
    print(json.dumps({"correct": chk.failed == 0, "attempted": max(1, chk.attempted),
                      "failed": chk.failed, "metrics": metrics}))
    sys.exit(1 if chk.failed else 0)


if __name__ == "__main__":
    main()
