"""Command line surface: counting, enumeration, sampling, checks, export.

Every subcommand is deterministic given its flags (plus the seed for
sample).  Failed checks and bad inputs produce a diagnostic line on
stderr and a nonzero exit status.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import verify
from .counting import admissible_types  # noqa: F401 - perfbench/run.py imports it from here
from .counting import check_type, classify, edge_count, tutte_count, vertex_count
from .enumerator import enumerate_maps
from .errors import ParseError, PlaneMapError
from .maps import PlaneMap
from .sampler import sample


def parse_type(text: str) -> tuple[int, ...]:
    try:
        return check_type([int(x) for x in text.split(",")])
    except (ValueError, PlaneMapError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _at_least(low: int):
    """Argument type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def to_dot(m: PlaneMap, name: str = "map") -> str:
    """Graph-description text: vertices, edges, face labels, marks.

    Vertices become nodes and edges become undirected edges labelled
    with the faces on their two sides.  Each face contributes one
    box node joined to the vertex of its marked corner by a dashed
    arrowhead edge, the file analogue of marking the corner.
    """
    lines = [f"graph {name} {{"]
    for v in range(m.n_vertices):
        lines.append(f'  v{v} [label="{v}"];')
    for d, t in m.edges():
        lines.append(
            f"  v{m.vertex_of(d)} -- v{m.vertex_of(t)} "
            f'[label="f{m.face_of(d)}|f{m.face_of(t)}"];'
        )
    for i in range(1, m.n_faces + 1):
        lines.append(f'  f{i} [shape=box, label="face {i} (deg {m.degree(i)})"];')
        lines.append(
            f"  f{i} -- v{m.vertex_of(m.marked[i - 1])} "
            "[style=dashed, dir=forward, arrowhead=normal, color=red];"
        )
    lines.append("}")
    return "\n".join(lines)


def _emit(m: PlaneMap, fmt: str, name: str, out) -> None:
    if fmt == "json":
        print(m.to_json(), file=out)
    elif fmt == "code":
        print(m.canonical_code(), file=out)
    else:
        print(to_dot(m, name), file=out)


def cmd_count(args, out) -> int:
    t = args.type
    cls = classify(t)
    print(f"E={edge_count(t)} V={vertex_count(t)} class={cls} M={tutte_count(t)}", file=out)
    return 0


def cmd_enumerate(args, out) -> int:
    maps = enumerate_maps(args.type, max_edges=args.max_edges)
    for m in maps:
        _emit(m, args.format, "map", out)
    print(f"count={len(maps)}", file=out)
    return 0


def cmd_sample(args, out) -> int:
    rng = random.Random(args.seed)
    for i in range(args.count):
        _emit(sample(args.type, rng), args.format, f"sample{i}", out)
    return 0


def cmd_export(args, out) -> int:
    # JSON text is UTF-8 (RFC 8259), whatever the locale says
    source = sys.stdin if args.input == "-" else open(args.input, encoding="utf-8")
    try:
        n = 0
        for line in source:
            line = line.strip()
            if not line or line.startswith("count="):
                continue
            _emit(PlaneMap.from_json(line), args.format, f"map{n}", out)
            n += 1
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not text: {exc}") from None
    finally:
        if source is not sys.stdin:
            source.close()
    print(f"exported {n} maps", file=out)
    return 0


def cmd_verify(args, out) -> int:
    lines, failures = args.engine(args.max_edges)
    failed, passed = args.verdict
    for line in lines:
        print(line, file=out)
    if failures:
        print(f"error: {failures} {failed} failed", file=sys.stderr)
        return 1
    print(f"all {passed} passed", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="planemaps",
        description="plane maps with prescribed face degrees: "
        "count, enumerate, sample, verify, export",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="print E, V, parity class and map count")
    p.add_argument("--type", type=parse_type, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="stream all maps of a type")
    p.add_argument("--type", type=parse_type, required=True)
    p.add_argument("--max-edges", type=int, default=6)
    p.add_argument("--format", choices=("json", "dot", "code"), default="json")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("sample", help="draw uniform maps of a type")
    p.add_argument("--type", type=parse_type, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_at_least(0), default=1)
    p.add_argument("--format", choices=("json", "dot", "code"), default="json")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify-identities", help="check the four counting identities")
    p.add_argument("--max-edges", type=_at_least(1), default=4)
    p.set_defaults(func=cmd_verify, engine=verify.identities, verdict=("identity checks",) * 2)

    p = sub.add_parser("verify-roundtrip", help="run the bijection round trips exhaustively")
    p.add_argument("--max-edges", type=_at_least(1), default=3)
    p.set_defaults(
        func=cmd_verify, engine=verify.round_trips, verdict=("round-trip checks", "round trips")
    )

    p = sub.add_parser("verify-props", help="sweep the toward/away/parallel censuses")
    p.add_argument("--max-edges", type=_at_least(1), default=4)
    p.set_defaults(
        func=cmd_verify, engine=verify.censuses, verdict=("censuses", "direction censuses")
    )

    p = sub.add_parser("export", help="convert serialized maps to DOT")
    p.add_argument("--input", default="-", help="file of JSON lines, - for stdin")
    p.add_argument("--format", choices=("dot",), default="dot")
    p.set_defaults(func=cmd_export)

    return ap


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, out)
    except BrokenPipeError:
        raise  # a closed stdout is not a bad input; main handles it
    except (PlaneMapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: no error line, and stdout on devnull
        # so that the flush at interpreter exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
