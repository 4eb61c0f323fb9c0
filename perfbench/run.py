"""The planemaps benchmark: one command, three workloads.

    python3 perfbench/run.py --workload grow-ladder --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ./src and
driven only through its public API; the benchmark hands it nothing but
(type, seed) pairs and command lines generated from --seed.

Workloads (why each exists is in perfbench/README.md):

- grow-ladder   sample() on one-face, quadrangulation and quasibipartite
                types at E = 40, 80, 160, interleaved round by round;
- sample-tiny   sample(t, seed).canonical_code() on the five types of
                the uniformity gate, weighted 1:1:1:10:10;
- verify-sweep  cli.run verify-roundtrip --max-edges 3, then
                verify-props --max-edges 5, in process.

--trace 0 sets up several times (setup_s is the median), measures for
--seconds and reports the end-to-end metrics.  The gated ones are
divided by the time of a fixed reference kernel measured beside the
ops (see Reference), because the host's speed drifts far more than a
regression gate can allow.  --trace 1 runs a fixed op list once
untraced and once under the outside-in tracer of perfbench/tracer.py
and reports the per-layer metrics; its timings are never used as
end-to-end numbers.

Every run checks its outputs (golden codes, supports, degrees, CLI
verdicts and counts), prints every metric by name with its unit and a
provenance line, writes the same to perfbench/out/, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import signal
import statistics
import sys
import time
import traceback
from array import array
from collections import deque
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 5

RUNGS = (40, 80, 160)
FAMILIES = {
    "tree": lambda e: (2 * e,),
    "faces": lambda e: (4,) * (e // 2),
    "quasi": lambda e: (e + 1, e - 1),
}
LADDER = [(fam, e, make(e)) for e in RUNGS for fam, make in FAMILIES.items()]
LADDER_ROUNDS = 400  # seed rows generated; a longer run wraps round
TRACE_ROUNDS = 10

TINY = (((2, 2), 1), ((4, 2), 1), ((3, 1), 1), ((4, 4), 10), ((3, 3), 10))
TINY_OPS = 1 << 17  # (type, seed) pairs generated; a longer run wraps round
TINY_WARMUP = 500
TINY_BLOCK = 500  # ops between two reference timings
TRACE_TINY_OPS = 10000

ROUNDTRIP_K = 3
PROPS_K = 5

REF_NOMINAL_S = 0.001  # the reference kernel's time that setup_s is scaled to
SAMPLE_PERIOD = 0.1  # seconds between kernel timings inside a CLI command


# ----------------------------------------------------------------- helpers


def load_program() -> float:
    """Import planemaps from ./src; return the import time in seconds."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import planemaps  # noqa: F401
        import planemaps.cli  # noqa: F401
        import planemaps.counting  # noqa: F401
        import planemaps.enumerator  # noqa: F401
        import planemaps.sampler  # noqa: F401
    except ImportError as exc:
        sys.exit(f"error: cannot import planemaps from {SRC}: {exc}")
    elapsed = time.perf_counter() - t0
    origin = Path(planemaps.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"error: planemaps was imported from {origin}, not from {SRC}")
    return elapsed


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list, q in (0, 100]."""
    k = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def geomean(xs) -> float:
    return math.exp(statistics.fmean(math.log(x) for x in xs))


def slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


class Checks:
    """Counts attempted and failed operations; a failure is any wrong output."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
                print(f"FAIL {what}", file=sys.stderr)

    def crashed(self, what: str) -> None:
        self.record(False, f"{what}: raised")
        if self.failed <= 3:
            traceback.print_exc()


def check_golden(checks: Checks) -> None:
    """sample(t, seed).canonical_code() must equal the pinned codes."""
    from planemaps import sampler

    golden = json.loads((BENCH / "golden.json").read_text())
    for entry in golden["codes"]:
        t, seed = tuple(entry["type"]), entry["seed"]
        try:
            code = sampler.sample(t, seed).canonical_code()
        except Exception:
            checks.crashed(f"golden {t} seed {seed}")
            continue
        checks.record(code == entry["code"], f"golden {t} seed {seed}: code differs")


def recorded_counts() -> dict:
    return json.loads((BENCH / "golden.json").read_text())["sweep"]


class Reference:
    """A fixed pure-Python kernel that the gated timings are divided by.

    On a shared 2-vCPU virtual machine the same call runs up to 1.5x
    slower for seconds to minutes at a time, CPU time included, so raw
    times of two 30 s runs disagree by 20-30%.  The kernel does the kind
    of work the library does (BFS over a deque, cyclic successor scans,
    dict and tuple building) on a fixed input and never calls the
    library, so its time follows the host and not the library.  It is
    timed between blocks of short ops (measure) and sampled inside long
    calls (during); an op's time divided by the kernel time around it,
    in units of "ref", repeats within a few percent from run to run.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self.n = 400
        self.adj = tuple(tuple(rng.randrange(self.n) for _ in range(3)) for _ in range(self.n))
        self.succ = {i: (i + 1) % 64 for i in range(64)}

    def kernel(self) -> int:
        n, adj, succ = self.n, self.adj, self.succ
        total = 0
        for src in range(0, 40, 4):
            dist = [-1] * n
            dist[src] = 0
            queue = deque([src])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            total += sum(dist)
        for d in range(0, 64, 2):
            e = d
            while succ[e] != d:
                e = succ[e]
                total += 1
        pairs = {i: (adj[i][0], adj[i][1]) for i in range(n)}
        return total + len(pairs)

    def measure(self) -> float:
        """Median of three kernel timings, in seconds."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def during(self, fn) -> tuple[object, list[float]]:
        """Call fn() while a timer signal times the kernel every SAMPLE_PERIOD s.

        For calls that last seconds, longer than the host's fast and slow
        phases: the kernel runs inside the call, in the same thread, so
        its timings follow the host through the call.  Returns fn's
        result and the kernel timings; the caller subtracts their sum
        from the call's time.
        """
        samples: list[float] = []

        def on_alarm(signum, frame):
            t0 = time.perf_counter()
            self.kernel()
            samples.append(time.perf_counter() - t0)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return result, samples


# -------------------------------------------------------------- grow-ladder


class GrowLadder:
    name = "grow-ladder"

    def setup(self, seed: int, checks: Checks) -> None:
        rng = random.Random(seed)
        self.seeds = [array("Q", (rng.getrandbits(64) for _ in LADDER)) for _ in range(LADDER_ROUNDS)]
        for c in range(len(FAMILIES)):  # warm up on the bottom rung
            self._op(LADDER_ROUNDS - 1, c, checks)

    def _op(self, r: int, c: int, checks: Checks):
        from planemaps import sampler

        fam, e, t = LADDER[c]
        seed = self.seeds[r % LADDER_ROUNDS][c]
        t0 = time.perf_counter()
        try:
            m = sampler.sample(t, seed)
        except Exception:
            checks.crashed(f"sample({t}, {seed})")
            return None, None
        dt = time.perf_counter() - t0
        checks.record(m.degrees == t, f"sample({t}, {seed}) has degrees {m.degrees}")
        return dt, m

    def timed(self, seconds: float, checks: Checks) -> tuple[dict, float]:
        ref = Reference()
        times: list[list[float]] = [[] for _ in LADDER]
        norm: list[list[float]] = [[] for _ in LADDER]
        refs = [ref.measure()]
        t_start = time.perf_counter()
        deadline = t_start + seconds
        r = 0
        while time.perf_counter() < deadline:
            done = []
            for c in range(len(LADDER)):
                if time.perf_counter() >= deadline:
                    break
                dt, _ = self._op(r, c, checks)
                if dt is not None:
                    done.append((c, dt))
            refs.append(ref.measure())
            unit = (refs[-2] + refs[-1]) / 2
            for c, dt in done:
                times[c].append(dt)
                norm[c].append(dt / unit)
            r += 1
        wall = time.perf_counter() - t_start
        maps = sum(map(len, times))
        out = {"maps_per_s": maps / wall, "rounds": r, "maps": maps}
        med = {(fam, e): statistics.median(times[c]) * 1e3 for c, (fam, e, _) in enumerate(LADDER)}
        for fam in FAMILIES:
            out[f"ms_per_map.{fam}"] = med[fam, RUNGS[-1]]
            out[f"exp.{fam}"] = slope(RUNGS, [med[fam, e] for e in RUNGS])
            for e in RUNGS:
                out[f"rung_ms.{fam}.{e}"] = med[fam, e]
        top = [statistics.median(norm[c]) for c, (_, e, _) in enumerate(LADDER) if e == RUNGS[-1]]
        out["latency_ref"] = geomean(top)
        out["throughput_ref"] = maps / sum(map(sum, norm))
        out["ref_ms"] = statistics.median(refs) * 1e3
        return out, wall

    def fixed_ops(self) -> list[tuple[str, object]]:
        """TRACE_ROUNDS full rounds; the label names the slice an op belongs to."""
        return [(f"{LADDER[c][0]}@{LADDER[c][1]}", (r, c)) for r in range(TRACE_ROUNDS) for c in range(len(LADDER))]

    def fixed_op(self, arg, checks: Checks):
        return self._op(*arg, checks)[1]


# -------------------------------------------------------------- sample-tiny


class SampleTiny:
    name = "sample-tiny"

    def setup(self, seed: int, checks: Checks) -> None:
        from planemaps import enumerator

        rng = random.Random(seed)
        weights = [w for _, w in TINY]
        self.kinds = array("B", rng.choices(range(len(TINY)), weights=weights, k=TINY_OPS))
        self.seeds = array("Q", (rng.getrandbits(64) for _ in range(TINY_OPS)))
        self.support = {t: {m.canonical_code() for m in enumerator.enumerate_maps(t)} for t, _ in TINY}
        for i in range(TINY_OPS - TINY_WARMUP, TINY_OPS):
            self._op(i, checks)

    def _op(self, i: int, checks: Checks):
        from planemaps import sampler

        t = TINY[self.kinds[i % TINY_OPS]][0]
        seed = self.seeds[i % TINY_OPS]
        t0 = time.perf_counter()
        try:
            code = sampler.sample(t, seed).canonical_code()
        except Exception:
            checks.crashed(f"sample({t}, {seed})")
            return None, None
        dt = time.perf_counter() - t0
        checks.record(code in self.support[t], f"sample({t}, {seed}) is outside the support")
        return dt, code

    def timed(self, seconds: float, checks: Checks) -> tuple[dict, float]:
        ref = Reference()
        times: list[float] = []
        norm: list[float] = []
        refs = [ref.measure()]
        t_start = time.perf_counter()
        deadline = t_start + seconds
        i = 0
        while time.perf_counter() < deadline:
            block = []
            for j in range(i, i + TINY_BLOCK):
                dt, _ = self._op(j, checks)
                if dt is not None:
                    block.append(dt)
            i += TINY_BLOCK
            refs.append(ref.measure())
            unit = (refs[-2] + refs[-1]) / 2
            times += block
            norm += [dt / unit for dt in block]
        wall = time.perf_counter() - t_start
        times.sort()
        p99 = percentile(times, 99)
        out = {
            "maps_per_s": len(times) / wall,
            "op_ms.p50": percentile(times, 50) * 1e3,
            "op_ms.p99": p99 * 1e3,
            "maps": len(times),
            "beyond_p99": sum(1 for x in times if x > p99),
            "latency_ref": statistics.median(norm),
            "throughput_ref": len(norm) / sum(norm),
            "ref_ms": statistics.median(refs) * 1e3,
        }
        return out, wall

    def fixed_ops(self) -> list[tuple[str, object]]:
        return [("tiny", i) for i in range(TRACE_TINY_OPS)]

    def fixed_op(self, arg, checks: Checks):
        return self._op(arg, checks)[1]


# ------------------------------------------------------------- verify-sweep


def sweep_families(k: int) -> list[tuple]:
    """(identity, type) of each family sweep verify-roundtrip runs up to k edges.

    Mirrors the selection in cmd_verify_roundtrip; the family count is
    checked against the command's own report.
    """
    from planemaps.cli import admissible_types
    from planemaps.counting import Identity, odd_positions

    out = []
    for t in admissible_types(k):
        odd = odd_positions(t)
        if not odd:
            out.append((Identity.TWO_CORNERS_SAME_FACE, t))
            if len(t) >= 2:
                out.append((Identity.CORNER_EACH_TWO_FACES, t))
        if len(t) >= 2 and t[-1] >= 2 and (not odd or len(t) in odd):
            out.append((Identity.FACE_TO_FACE, t))
        if len(t) >= 2 and t[-1] == 1 and len(odd) == 2:
            out.append((Identity.UNIT_FACE, t))
    return out


def decorated_round_trips(k: int) -> int:
    """Decorations verify-roundtrip walks: every lhs of a family, every rhs of its target."""
    from planemaps.counting import edge_count, identity_target
    from planemaps.enumerator import enumerate_decorations, enumerate_maps

    n = 0
    for ident, t in sweep_families(k):
        tt = identity_target(ident, t)
        n += sum(len(enumerate_decorations(m, ident, "lhs")) for m in enumerate_maps(t))
        n += sum(
            len(enumerate_decorations(m, ident, "rhs"))
            for m in enumerate_maps(tt, max_edges=edge_count(tt))
        )
    return n


def run_cli(argv: list[str]) -> tuple[int, str]:
    from planemaps import cli

    out = io.StringIO()
    rc = cli.run(argv, out)
    return rc, out.getvalue()


class VerifySweep:
    name = "verify-sweep"
    COMMANDS = (
        ("verify-roundtrip", ["verify-roundtrip", "--max-edges", str(ROUNDTRIP_K)],
         r"round trips: (\d+) family sweeps", "family_sweeps"),
        ("verify-props", ["verify-props", "--max-edges", str(PROPS_K)],
         r"direction censuses: (\d+) maps swept", "maps_swept"),
    )

    def setup(self, seed: int, checks: Checks) -> None:
        # the work is fixed by ROUNDTRIP_K and PROPS_K; the seed only
        # names the run
        self.expected = recorded_counts()
        self.round_trips = decorated_round_trips(ROUNDTRIP_K)
        checks.record(
            self.round_trips == self.expected["decorated_round_trips"],
            f"enumerate_decorations counts {self.round_trips} round trips at k={ROUNDTRIP_K}",
        )
        for argv in (["verify-roundtrip", "--max-edges", "2"], ["verify-props", "--max-edges", "3"]):
            run_cli(argv)

    def _command(self, which: int, checks: Checks) -> tuple[float, str]:
        label, argv, pattern, key = self.COMMANDS[which]
        t0 = time.perf_counter()
        try:
            rc, text = run_cli(argv)
        except Exception:
            checks.crashed(" ".join(argv))
            return math.nan, ""
        dt = time.perf_counter() - t0
        lines = text.strip().splitlines()
        found = re.search(pattern, text)
        count = int(found.group(1)) if found else 0
        checks.record(
            rc == 0 and bool(lines) and lines[-1].endswith("passed")
            and count > 0 and count == self.expected[key],
            f"{' '.join(argv)}: exit {rc}, {key} {count} (recorded {self.expected[key]}), "
            f"last line {lines[-1] if lines else ''!r}",
        )
        return dt, text

    def timed(self, seconds: float, checks: Checks) -> tuple[dict, float]:
        ref = Reference()
        times: tuple[list, list] = ([], [])  # verify-roundtrip, verify-props
        norm: tuple[list, list] = ([], [])
        refs: list[float] = []
        t_start = time.perf_counter()
        while True:
            for which in (0, 1):
                (dt, _), samples = ref.during(lambda: self._command(which, checks))
                if not samples:  # a call shorter than SAMPLE_PERIOD
                    samples = [ref.measure()]
                own = dt - sum(samples)
                times[which].append(own)
                norm[which].append(own * statistics.fmean(1 / x for x in samples))
                refs += samples
            elapsed = time.perf_counter() - t_start
            # start another sweep only if it should end within the budget
            if elapsed + times[0][-1] + times[1][-1] > seconds:
                break
        wall = time.perf_counter() - t_start
        trips, props = times
        out = {
            "sweep_s": statistics.median(map(sum, zip(trips, props))),
            "roundtrips_per_s": self.round_trips / statistics.median(trips),
            "sweeps": len(trips),
            "round_trips": self.round_trips,
            "latency_ref": statistics.median(map(sum, zip(*norm))),
            "throughput_ref": self.round_trips / statistics.median(norm[0]),
            "ref_ms": statistics.median(refs) * 1e3,
        }
        return out, wall

    def fixed_ops(self) -> list[tuple[str, object]]:
        return [(label, i) for i, (label, *_) in enumerate(self.COMMANDS)]

    def fixed_op(self, arg, checks: Checks):
        return self._command(arg, checks)[1]


WORKLOADS = {w.name: w for w in (GrowLadder, SampleTiny, VerifySweep)}


# ----------------------------------------------------------------- metrics

# Units of the end-to-end metrics, each printed by name on the workloads
# it applies to.  The result line carries only the four every workload
# has (BENCHMARK.json end_to_end); fail_frac is 0 on a correct run, so
# it travels as the result's attempted and failed counts instead.
UNITS = {
    "setup_s": "s",
    "setup_raw_s": "s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
    "maps_per_s": "1/s",
    "ms_per_map.tree": "ms",
    "ms_per_map.faces": "ms",
    "ms_per_map.quasi": "ms",
    "exp.tree": "1",
    "exp.faces": "1",
    "exp.quasi": "1",
    "op_ms.p50": "ms",
    "op_ms.p99": "ms",
    "sweep_s": "s",
    "roundtrips_per_s": "1/s",
    "latency_ref": "ref",
    "throughput_ref": "1/ref",
    "ref_ms": "ms",
}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def layer_metrics(tr, wall_untraced: float, wall_traced: float) -> dict:
    """The per-layer metrics of one traced pass."""
    from tracer import BIJECTIONS

    calls = dict(zip(tr.names, tr.calls))
    self_s = {n: ns / 1e9 for n, ns in zip(tr.names, tr.self_ns)}

    def total(*names):
        return sum(self_s[n] for n in names)

    bij_calls = sum(calls[n] for n in BIJECTIONS)
    anc = tr.nearest_bijection()
    dist_id = tr.names.index("distances")
    dist_in_bij = sum(1 for nid, a in zip(tr.spans["name"], anc) if nid == dist_id and a >= 0)
    out = {
        "maps.construct.calls": calls["PlaneMap.__init__"],
        "maps.construct.self_s": self_s["PlaneMap.__init__"],
        "maps.canonical_code.calls": calls["PlaneMap.canonical_code"],
        "maps.canonical_code.self_s": self_s["PlaneMap.canonical_code"],
        "metric.distances.calls": calls["distances"],
        "metric.distances.self_s": self_s["distances"],
        "metric.bfs_per_step": dist_in_bij / bij_calls if bij_calls else 0.0,
        "metric.geodesic.calls": calls["leftmost_geodesic"] + calls["rightmost_geodesic"],
        "metric.geodesic.self_s": total("leftmost_geodesic", "rightmost_geodesic"),
        "metric.classify.calls": calls["classify_dart"],
        "metric.classify.self_s": self_s["classify_dart"],
        "surgery.prev_of.calls": calls["Workspace.prev_of"],
        "surgery.prev_of.self_s": self_s["Workspace.prev_of"],
        "surgery.slit.self_s": total("slit", "slit_pinched"),
        "surgery.sew.self_s": total("sew_forward", "sew_backward", "sew_onto", "glue", "weld"),
        "surgery.suppress.self_s": self_s["suppress_pendant"],
        "surgery.finish.self_s": self_s["finish"],
        "surgery.digon.calls": calls["edge_to_digon"],
        "surgery.digon.self_s": self_s["edge_to_digon"],
    }
    for n in BIJECTIONS:
        out[f"bijections.{n}.calls"] = calls[n]
    out["bijections.self_s"] = total(*BIJECTIONS)
    for case, n in tr.cases.items():
        out[f"bijections.case.{case}"] = n
    out["enumerator.maps.calls"] = calls["enumerate_maps"]
    out["enumerator.maps.self_s"] = self_s["enumerate_maps"]
    out["enumerator.keep_ratio"] = tr.maps_kept / tr.matchings_tried if tr.matchings_tried else 0.0
    out["enumerator.decorations.self_s"] = self_s["enumerate_decorations"]
    out["sampler.self_s"] = total("sample", "sample_bipartite", "sample_quasibipartite")
    out["cli.self_s"] = self_s["run"]
    out["trace.overhead"] = wall_traced / wall_untraced
    return out


# -------------------------------------------------------------- provenance


def _git_commit() -> str | None:
    """HEAD of ./.git if the checkout is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, walls: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "planemaps").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": walls,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -------------------------------------------------------------------- runs


def run_untraced(wl, args, checks: Checks, import_s: float) -> tuple[dict, dict]:
    ref = Reference()
    refs = [ref.measure()]
    setups, norm = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        check_golden(checks)
        wl.setup(args.seed, checks)
        setups.append(time.perf_counter() - t0)
        refs.append(ref.measure())
        norm.append(setups[-1] / ((refs[-2] + refs[-1]) / 2))
    gc.collect()
    found, wall = wl.timed(args.seconds, checks)
    found["setup_raw_s"] = import_s + statistics.median(setups)
    # set-up time on a host where the reference kernel takes REF_NOMINAL_S
    found["setup_s"] = (import_s / refs[0] + statistics.median(norm)) * REF_NOMINAL_S
    found["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    found["fail_frac"] = checks.failed / checks.attempted
    spec = benchmark_spec()
    metrics = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return metrics, {"found": found, "walls": {"untraced": wall}}


def traced_pass(wl, seed: int, checks: Checks):
    """Set up once, run the fixed op list untraced, then again traced.

    Returns (tracer, op labels, untraced wall, traced wall).  Exits
    without a result when the tracer would under-count: an original
    callable still reachable through an alias it did not replace.
    """
    sys.path.insert(0, str(BENCH))
    from tracer import Tracer

    check_golden(checks)
    wl.setup(seed, checks)
    ops = wl.fixed_ops()
    gc.collect()
    t0 = time.perf_counter()
    plain = [wl.fixed_op(arg, checks) for _, arg in ops]
    wall_untraced = time.perf_counter() - t0

    tr = Tracer()
    tr.install()
    try:
        missed = tr.missed_aliases()
        if missed:
            sys.exit("error: the tracer left these aliases unwrapped:\n  " + "\n  ".join(missed))
        gc.collect()
        t0 = time.perf_counter()
        traced = []
        for i, (_, arg) in enumerate(ops):
            tr.op = i
            traced.append(wl.fixed_op(arg, checks))
        wall_traced = time.perf_counter() - t0
    finally:
        tr.uninstall()
    for i, (a, b) in enumerate(zip(plain, traced)):
        checks.record(a == b, f"op {i} gave another result under the tracer")
    return tr, [label for label, _ in ops], wall_untraced, wall_traced


def run_traced(wl, args, checks: Checks) -> tuple[dict, dict]:
    tr, labels, wall_untraced, wall_traced = traced_pass(wl, args.seed, checks)
    found = layer_metrics(tr, wall_untraced, wall_traced)
    spec = benchmark_spec()
    metrics = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    extra = {
        "found": found,
        "walls": {"untraced": wall_untraced, "traced": wall_traced},
        "absent": tr.absent,
        "ops": labels,
        "spans": tr.write(OUT / f"{wl.name}.spans"),
    }
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    import_s = load_program()
    wl = WORKLOADS[args.workload]()
    checks = Checks()
    if args.trace:
        metrics, extra = run_traced(wl, args, checks)
    else:
        metrics, extra = run_untraced(wl, args, checks, import_s)
    prov = provenance(args, extra.pop("walls"))

    units = {**{m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}, **UNITS}
    for name, value in extra["found"].items():
        unit = "ms" if name.startswith("rung_ms.") else units.get(name, "count")
        print(f"{name:32s} {value:.6g} {unit}")
    if extra.get("absent"):
        print("not traced, no longer in the program: " + ", ".join(extra["absent"]))
    if checks.notes:
        print("failures: " + "; ".join(checks.notes))
    print("provenance " + json.dumps(prov))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"result": result, "provenance": prov, **extra}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
