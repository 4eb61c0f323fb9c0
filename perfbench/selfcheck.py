"""Tracer completeness self-check, and the layer self-time shares.

    python3 perfbench/selfcheck.py [--seed 1]

Runs the traced pass of every workload in this process and checks
that the tracer sees what the code at the benchmark's defining commit
is known to do:

- every wrapped name is present and has calls on at least one workload;
- on grow-ladder, each grow_same runs exactly 5 BFS (distances calls
  under a grow_same span per grow_same call);
- on the tree family at E=160, Workspace.prev_of has the largest self
  time in the surgery layer; on the faces family at E=160 it is under
  2% of the wall.

A missed import alias shows up as a wrapped name with no calls or as
a too-low BFS count, so it fails here instead of being under-counted.
The BFS and prev_of facts describe the code before the growth-step
optimisations on the roadmap, which are meant to change them; rerun
this check when the tracer changes, not after such an optimisation.

It also prints the share of wall time each layer spends in its own
code, per slice: a ladder family at the top rung, the tiny mix, and
each verify command.  Exit status 0 when every check passes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import TARGETS  # noqa: E402

LAYERS = ("maps", "metric", "surgery", "bijections", "enumerator", "sampler", "cli")
SURGERY_GROUPS = {
    "prev_of": ("Workspace.prev_of",),
    "slit": ("slit", "slit_pinched"),
    "sew": ("sew_forward", "sew_backward", "sew_onto", "glue", "weld"),
    "suppress": ("suppress_pendant",),
    "finish": ("finish",),
    "digon": ("edge_to_digon",),
}
TOP = run.RUNGS[-1]


def slices(tr, labels) -> dict:
    """Per op label: wall (root span time) and self time by wrapped name."""
    sp = tr.spans
    out: dict[str, dict] = {}
    for nid, parent, op, start, end, own in zip(
        sp["name"], sp["parent"], sp["op"], sp["start_ns"], sp["end_ns"], sp["self_ns"]
    ):
        s = out.setdefault(labels[op], {"wall": 0, "self": {}})
        if parent < 0:
            s["wall"] += end - start
        name = tr.names[nid]
        s["self"][name] = s["self"].get(name, 0) + own
    return out


def bfs_per_grow_same(tr) -> float:
    anc = tr.nearest_bijection()
    names = tr.names
    grow, dist = names.index("grow_same"), names.index("distances")
    sp_name = tr.spans["name"]
    n = sum(1 for nid, a in zip(sp_name, anc) if nid == dist and a >= 0 and sp_name[a] == grow)
    calls = tr.calls[grow]
    return n / calls if calls else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    run.load_program()

    failures = []

    def check(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    calls = {name: 0 for _, name, _ in TARGETS}
    table = []
    for cls in run.WORKLOADS.values():
        wl = cls()
        checks = run.Checks()
        tr, labels, wall_u, wall_t = run.traced_pass(wl, args.seed, checks)
        check(checks.failed == 0, f"{wl.name}: {checks.attempted} outputs correct")
        check(not tr.absent, f"{wl.name}: every target present {tr.absent or ''}")
        for name, n in zip(tr.names, tr.calls):
            calls[name] += n
        print(f"{wl.name}: {len(tr.spans['name'])} spans, untraced {wall_u:.2f} s, "
              f"traced {wall_t:.2f} s, overhead {wall_t / wall_u:.2f}")
        by_label = slices(tr, labels)
        wanted = [f"{fam}@{TOP}" for fam in run.FAMILIES] if wl.name == "grow-ladder" else list(by_label)
        for label in wanted:
            s = by_label[label]
            shares = {layer: 0 for layer in LAYERS}
            for name, own in s["self"].items():
                shares[tr.layer_of[name]] += own
            table.append((label, s["wall"], {k: v / s["wall"] for k, v in shares.items()},
                          s["self"].get("Workspace.prev_of", 0) / s["wall"]))
        if wl.name == "grow-ladder":
            bfs = bfs_per_grow_same(tr)
            check(bfs == 5.0, f"grow-ladder: {bfs:.4f} BFS per grow_same (expected 5.0)")
            tree = by_label[f"tree@{TOP}"]["self"]
            groups = {g: sum(tree.get(n, 0) for n in names) for g, names in SURGERY_GROUPS.items()}
            top = max(groups, key=groups.get)
            check(top == "prev_of", f"tree@{TOP}: largest surgery self time is {top}")
            faces = by_label[f"faces@{TOP}"]
            share = faces["self"].get("Workspace.prev_of", 0) / faces["wall"]
            check(share < 0.02, f"faces@{TOP}: prev_of is {share:.2%} of wall (expected < 2%)")

    idle = [name for name, n in calls.items() if n == 0]
    check(not idle, f"every wrapped name has calls on some workload {idle or ''}")

    print()
    print("layer self time as a share of traced wall, per slice")
    print(f"{'slice':18s} {'wall_s':>7s} " + " ".join(f"{x:>10s}" for x in LAYERS) + f" {'prev_of':>8s}")
    for label, wall, shares, prev in table:
        print(f"{label:18s} {wall / 1e9:7.2f} " + " ".join(f"{shares[x]:10.1%}" for x in LAYERS)
              + f" {prev:8.1%}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
