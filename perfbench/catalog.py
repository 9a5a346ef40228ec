"""Query catalogs and seeded request streams for the benchmark workloads.

Every query is written as an ``hpl`` command line (argv without the
program name). The daemon frame for a query is derived from that argv,
so one golden digest covers the CLI answer and the daemon answer.

Mix weights are fixed per round; the seed chooses the order and, where a
slot lists alternatives of similar cost, which alternative runs. That
keeps each run's mix, and so its percentiles, the same across seeds,
while the request sequence the program sees changes with the seed.
"""

import math
import random

# -- cli-cold ---------------------------------------------------------------
#
# One round is 40 slots in five cost classes. Cumulative shares:
# tiny 0-40%, small 40-60%, medium 60-85%, large 85-95%, xl 95-100%.
# p50 falls mid "small", p90 mid "large" and p99 inside "xl", each at
# least 5 points from a boundary between classes of different cost.

TB_NESTED = "AG (holds2 -> K p2 (K p1 (~holds0) & K p3 (~holds4)))"
ECHO_AG = "AG (completed -> K p0 (informed1 & informed2))"
QUORUM_AG = "AG (decided -> K p0 decided)"
RING_AG = "AG (p0_sent -> K p0 p0_sent)"

CLI_SLOTS = [
    # tiny: process start dominates (3-8 ms)
    ("tiny", [["knows", "-s", "chatter:2", "-d", "5"]]),
    ("tiny", [["enumerate", "-s", "quorum", "-d", "9"]]),
    ("tiny", [["enumerate", "-s", "quorum", "-d", "9", "--reduce", "por"]]),
    ("tiny", [["check", "-s", "token-bus:5", "-d", "8", TB_NESTED],
              ["check", "-s", "token-bus:3", "-d", "5", "AG (holds2 -> K p2 (~holds0))"]]),
    ("tiny", [["check", "-s", "two-generals", "CK attack"],
              ["check", "-s", "two-generals", "--faults", "crash:p1@2", "CK attack"]]),
    ("tiny", [["check", "-s", "echo:3", "-d", "9", ECHO_AG],
              ["check", "-s", "chatter:2", "-d", "4", "AG (sent -> EF (K p1 sent))"]]),
    ("tiny", [["knows", "-s", "two-generals"],
              ["knows", "-s", "two-generals", "--faults", "crash:p1@2"]]),
    ("tiny", [["knows", "-s", "ping-pong", "--faults", "drop:p0->p1"],
              ["knows", "-s", "ping-pong", "--faults", "dup:p1->p0"]]),
    ("tiny", [["knows", "-s", "echo:3", "-d", "8", "--faults", "drop:p0->p1"],
              ["knows", "-s", "echo:3", "--faults", "crash-any:1"]]),
    ("tiny", [["knows", "-s", "token-ring:4", "-d", "10", "--faults", "crash:p1@2"],
              ["knows", "-s", "echo:3", "--faults", "crash:p1@1"]]),
    ("tiny", [["knows", "-s", "quorum", "-d", "9"],
              ["knows", "-f", "corpus/specs/quorum.hpl", "-d", "8"]]),
    ("tiny", [["enumerate", "-f", "corpus/specs/ping_pong.hpl"],
              ["enumerate", "-f", "corpus/specs/quorum.hpl:6", "-d", "9"]]),
    ("tiny", [["lint", "-s", "two-generals", "--formula", "K p1 attack"],
              ["lint", "-s", "token-ring:4"]]),
    ("tiny", [["lint", "-f", "corpus/specs/relay.hpl"],
              ["lint", "-f", "corpus/specs/ping_pong.hpl"],
              ["lint", "-s", "echo:3"]]),
    ("tiny", [["flow", "-f", "corpus/specs/relay.hpl"],
              ["flow", "-f", "corpus/specs/ping_pong.hpl"]]),
    ("tiny", [["flow", "-f", "corpus/specs/quorum.hpl", "-v"],
              ["flow", "-f", "corpus/specs/ring.hpl"],
              ["flow", "-s", "ring:6"],
              ["flow", "-s", "quorum"]]),
    # small: about 1k states or a light lint (6-15 ms)
    ("small", [["enumerate", "-s", "chatter:3", "-d", "6"]]),
    ("small", [["knows", "-s", "chatter:3", "-d", "6"]]),
    ("small", [["lint", "-s", "quorum"], ["lint", "-f", "corpus/specs/quorum.hpl"]]),
    ("small", [["enumerate", "-s", "quorum:7", "-d", "10"],
               ["enumerate", "-s", "chang-roberts:4", "-d", "10"]]),
    ("small", [["check", "-s", "quorum", "-d", "9", QUORUM_AG]]),
    ("small", [["enumerate", "-s", "chatter:3", "--faults", "crash-any:1"],
               ["lint", "-s", "chatter:3"]]),
    ("small", [["extent", "-s", "chang-roberts:4", "-d", "10", "elected"]]),
    ("small", [["enumerate", "-s", "chatter:3", "-d", "7"],
               ["enumerate", "-s", "ring:3", "-d", "14"]]),
    # medium: 2k-20k states, named-channel validation, lint of a ring
    ("medium", [["enumerate", "-s", "ring:6", "-d", "9"]]),
    ("medium", [["enumerate", "-s", "ring:6", "-d", "9", "--reduce", "sym"]]),
    ("medium", [["enumerate", "-s", "ring:6", "-d", "10"]]),
    ("medium", [["knows", "-s", "token-ring:4", "-d", "9", "--faults", "drop:p0->p1"],
                ["enumerate", "-s", "token-ring:4", "-d", "9", "--faults", "drop:p0->p1"]]),
    ("medium", [["enumerate", "-s", "chatter:3", "-d", "6", "-m", "full"]]),
    ("medium", [["enumerate", "-s", "chatter:4", "-d", "8"],
                ["knows", "-s", "chatter:4", "-d", "7"]]),
    ("medium", [["lint", "-s", "ring:6"], ["lint", "-f", "corpus/specs/ring.hpl"],
                ["lint", "-s", "mesh"]]),
    ("medium", [["extent", "-s", "star-flood", "-d", "9", "all_acked"],
                ["enumerate", "-s", "star-flood:6", "-d", "9", "--reduce", "sym"]]),
    ("medium", [["enumerate", "-f", "corpus/specs/ring.hpl", "-d", "9"],
                ["knows", "-f", "corpus/specs/ring.hpl", "-d", "8"]]),
    ("medium", [["knows", "-s", "ring:6", "-d", "9"],
                ["enumerate", "-s", "ring:6", "-d", "9", "--reduce", "por"],
                ["enumerate", "-s", "mesh:5", "-d", "6", "--reduce", "sym"]]),
    # large: 20k-60k states, or the costliest symmetric knowledge
    # query (180-300 ms)
    ("large", [["enumerate", "-s", "ring:6", "-d", "11"],
               ["enumerate", "-s", "ring:6", "-d", "11", "--reduce", "por"]]),
    ("large", [["enumerate", "-s", "star-flood:6", "-d", "9"],
               ["extent", "-s", "star-flood:6", "-d", "9", "all_acked"]]),
    ("large", [["enumerate", "-s", "mesh:5", "-d", "6"],
               ["extent", "-s", "mesh:5", "-d", "6", "all_sent"]]),
    ("large", [["enumerate", "-s", "ring:6", "-d", "12", "--reduce", "sym"],
               ["knows", "-s", "star-flood:6", "-d", "8"],
               ["knows", "-s", "ring:6", "-d", "9", "--reduce", "full"]]),
    # xl: the largest universe in the stream, 73721 states (400-500 ms)
    ("xl", [["enumerate", "-s", "ring:6", "-d", "12"],
            ["enumerate", "-s", "ring:6", "-d", "12", "--reduce", "por"]]),
    ("xl", [["enumerate", "-s", "ring:6", "-d", "12"],
            ["enumerate", "-s", "ring:6", "-d", "12", "--reduce", "por"]]),
]


def cli_rounds(rng, count):
    """The cli-cold stream: every slot once per round, in seeded order.
    A slot's alternatives take turns from a seeded offset, so each run
    holds them in equal shares."""
    offsets = [rng.randrange(len(alts)) for _, alts in CLI_SLOTS]
    rounds = []
    for r in range(count):
        reqs = [(cls, list(alts[(off + r) % len(alts)]))
                for (cls, alts), off in zip(CLI_SLOTS, offsets)]
        rng.shuffle(reqs)
        rounds.append(reqs)
    return rounds


# -- serve-churn ------------------------------------------------------------
#
# 30 keys of 1k-60k states, in Zipf rank order (s = 1). Ranks interleave
# sizes so that neither the hot head nor the cold tail is all small.

CHURN_KEYS = [
    (["-s", "ring:6", "-d", "9"], "all_sent"),
    (["-s", "chatter:4", "-d", "8"], "sent"),
    (["-s", "star-flood", "-d", "9"], "all_acked"),
    (["-s", "mesh:4", "-d", "6"], "all_sent"),
    (["-s", "ring:5", "-d", "10"], "p0_sent"),
    (["-s", "chatter:3", "-d", "6"], "idled"),
    (["-s", "star-flood:6", "-d", "7"], "p1_acked"),
    (["-s", "ring:6", "-d", "10"], "p0_sent"),
    (["-s", "mesh:4", "-d", "7"], "p0_sent"),
    (["-f", "corpus/specs/ring.hpl", "-d", "9"], "all_sent"),
    (["-s", "ring:4", "-d", "11"], "all_sent"),
    (["-s", "chatter:4", "-d", "7"], "idled"),
    (["-s", "quorum:7", "-d", "10"], "decided"),
    (["-s", "mesh:5", "-d", "5"], "all_sent"),
    (["-s", "ring:6", "-d", "8"], "all_sent"),
    (["-s", "star-flood:6", "-d", "8"], "all_acked"),
    (["-s", "chang-roberts:4", "-d", "10"], "elected"),
    (["-s", "ring:5", "-d", "9"], "all_sent"),
    (["-s", "chatter:3", "-d", "6", "-m", "full"], None),
    (["-s", "star-flood", "-d", "8"], "p1_acked"),
    (["-s", "ring:6", "-d", "11"], "all_sent"),
    (["-s", "ring:4", "-d", "10"], "p0_sent"),
    (["-s", "chang-roberts:5", "-d", "12"], "elected"),
    (["-s", "star-flood:6", "-d", "9"], "all_acked"),
    (["-s", "quorum:8", "-d", "10"], "p1_voted"),
    (["-s", "ring:5", "-d", "11"], "all_sent"),
    (["-s", "chatter:4", "-d", "6"], "sent"),
    (["-s", "mesh:5", "-d", "6"], "all_sent"),
    (["-s", "ring:4", "-d", "12"], "p0_sent"),
    (["-s", "chang-roberts:5", "-d", "10"], "elected"),
]

# Requests per stratified block: each block holds the exact Zipf counts.
CHURN_BLOCK = 200

# The daemon's --max-cached-states: about a third of the working set's
# total states, and at least its largest key (a larger universe is never
# cached). `run.py --record-golden` prints both figures.
CHURN_MAX_CACHED_STATES = 129000


def churn_counts():
    """Zipf(s=1) request counts per rank in one block, summing to CHURN_BLOCK."""
    w = [1.0 / r for r in range(1, len(CHURN_KEYS) + 1)]
    tot = sum(w)
    exact = [CHURN_BLOCK * x / tot for x in w]
    counts = [max(1, math.floor(x)) for x in exact]
    rest = sorted(range(len(w)), key=lambda i: exact[i] - math.floor(exact[i]), reverse=True)
    i = 0
    while sum(counts) < CHURN_BLOCK:
        counts[rest[i % len(rest)]] += 1
        i += 1
    return counts


def churn_block(rng):
    """One block: the Zipf counts per key in seeded order. The top key is
    always asked for an atom's extent, so its hits fill the middle of the
    latency distribution; every other key alternates extent and stats
    from a seeded phase."""
    reqs = []
    for rank, ((key, atom), n) in enumerate(zip(CHURN_KEYS, churn_counts())):
        phase = rng.randrange(2)
        for j in range(n):
            if atom is not None and (rank == 0 or (j + phase) % 2 == 0):
                reqs.append(("extent", ["extent"] + key + [atom]))
            else:
                reqs.append(("stats", ["enumerate"] + key))
    rng.shuffle(reqs)
    return reqs


# -- queries as daemon frames ------------------------------------------------

def parse_argv(argv):
    cmd, rest = argv[0], argv[1:]
    flags, pos, i = {}, [], 0
    names = {"-s": "protocol", "-f": "file", "-d": "depth", "--faults": "faults",
             "--reduce": "reduce", "-m": "mode", "--formula": "formula"}
    while i < len(rest):
        a = rest[i]
        if a in names:
            flags[names[a]] = rest[i + 1]
            i += 2
        elif a == "-v":
            flags["verbose"] = True
            i += 1
        else:
            pos.append(a)
            i += 1
    return cmd, flags, pos


def frame(argv):
    """The daemon request for a universe query, or None for lint/flow."""
    cmd, flags, pos = parse_argv(argv)
    op = {"enumerate": "enumerate-stats", "knows": "knows", "check": "check",
          "extent": "extent"}.get(cmd)
    if op is None:
        return None
    req = {"op": op}
    for k in ("protocol", "file", "depth", "faults", "reduce", "mode"):
        if k in flags:
            req[k] = flags[k]
    if cmd == "check":
        req["formula"] = pos[0]
    if cmd == "extent":
        req["atom"] = pos[0]
    return req


def names_channel(argv):
    """Does the query name a drop:/dup: channel (static validation)?"""
    faults = parse_argv(argv)[1].get("faults", "")
    return any(x.startswith(("drop:", "dup:")) and "->" in x for x in faults.split(","))


def query_key(argv):
    """The golden-file key of a query: its argv, space-joined."""
    return " ".join(argv)


def all_queries():
    """Every distinct query any workload can issue, by workload."""
    cli = [alt for _, alts in CLI_SLOTS for alt in alts]
    churn = []
    for key, atom in CHURN_KEYS:
        churn.append(["enumerate"] + key)
        if atom is not None:
            churn.append(["extent"] + key + [atom])
    return {"cli-cold": cli, "serve-churn": churn}


# Values documented independently of the engine (README, verify notes).
# Each is checked against the answer text of every matching request.
ANCHORS = {
    "enumerate -s chatter:3 -d 6": ["universe: 1067 computations"],
    "enumerate -s chatter:3 -d 6 -m full": ["universe: 25087 computations"],
    "enumerate -s ring:6 -d 9": ["universe: 9958 computations"],
    "enumerate -s ring:6 -d 9 --reduce sym": ["universe: 1670 computations"],
    "enumerate -s ring:6 -d 10": ["universe: 19810 computations"],
    "enumerate -s quorum -d 9": ["universe: 144 computations"],
    "enumerate -s quorum -d 9 --reduce por": ["universe: 87 computations"],
    "knows -s chatter:2 -d 5": ["p0 knows it in 68 / 106 computations",
                                "p1 knows it in 30 / 106 computations"],
}


def seeded(seed, salt):
    return random.Random(f"{salt}:{seed}")
