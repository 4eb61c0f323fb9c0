"""Command line surface: counting, enumeration, sampling, checks, export.

Every subcommand is deterministic given its flags (plus the seed for
sample).  Failed checks and bad inputs produce a diagnostic line on
stderr and a nonzero exit status.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections.abc import Iterator

from .bijections import IDENTITIES
from .counting import (
    Identity,
    check_type,
    classify,
    edge_count,
    identity_sides,
    identity_target,
    odd_positions,
    tutte_count,
    vertex_count,
)
from .enumerator import DEFAULT_MAX_EDGES, enumerate_decorations, enumerate_maps
from .errors import BadParity, ParseError, PlaneMapError
from .maps import PlaneMap
from .metric import census_fits, direction_census
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


def admissible_types(max_edges: int) -> Iterator[tuple[int, ...]]:
    """All degree tuples with at most max_edges edges, by size then lex.

    Covers every composition of 2, 4, ..., 2*max_edges with zero or
    two odd parts: exactly the types carrying plane maps.
    """

    def compositions(total: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if total == 0:
            yield prefix
            return
        for part in range(1, total + 1):
            yield from compositions(total - part, prefix + (part,))

    for e in range(1, max_edges + 1):
        for t in compositions(2 * e, ()):
            if sum(x % 2 for x in t) in (0, 2):
                yield t


def identity_families(max_edges: int) -> Iterator[tuple]:
    """(t, identity, target) for every identity that applies to an admissible type.

    Types come as admissible_types lists them and, per type, the
    identities in Identity order; the rest raise BadParity.
    """
    for t in admissible_types(max_edges):
        for ident in Identity:
            try:
                yield t, ident, identity_target(ident, t)
            except BadParity:
                continue


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
        mark = m.marked[i - 1]
        lines.append(
            f'  f{i} [shape=box, label="face {i} (deg {m.degree(i)})"];'
        )
        lines.append(
            f"  f{i} -- v{m.vertex_of(mark)} "
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
    print(
        f"E={edge_count(t)} V={vertex_count(t)} class={cls} M={tutte_count(t)}",
        file=out,
    )
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


def _verdict(failures: int, out, what: str, passed: str | None = None) -> int:
    """Exit status 1 and an error line when anything failed, else 0."""
    if failures:
        print(f"error: {failures} {what} failed", file=sys.stderr)
        return 1
    print(f"all {passed or what} passed", file=out)
    return 0


def cmd_verify_identities(args, out) -> int:
    k = args.max_edges
    failures = 0
    sides = [(t, ident, tt, *identity_sides(ident, t)) for t, ident, tt in identity_families(k)]
    for t, ident, _, lhs, rhs in sides:
        if lhs != rhs:
            failures += 1
            print(f"FAIL {ident.value} {t}: {lhs} != {rhs}", file=out)
    print(f"identity arithmetic: {len(sides)} instances checked", file=out)
    if k <= DEFAULT_MAX_EDGES:
        # each type is enumerated once, for every family side it is on,
        # and only one type's maps are held at a time
        readers: dict[tuple[int, ...], list] = {}
        for n, (t, ident, tt, _, _) in enumerate(sides):
            readers.setdefault(t, []).append((n, ident, "lhs"))
            readers.setdefault(tt, []).append((n, ident, "rhs"))
        counts = [{"lhs": 0, "rhs": 0} for _ in sides]
        for a, uses in readers.items():
            for m in enumerate_maps(a, max_edges=k + 1):
                for n, ident, side in uses:
                    counts[n][side] += len(enumerate_decorations(m, ident, side))
        for (t, ident, _, lhs, rhs), got in zip(sides, counts):
            nl, nr = got["lhs"], got["rhs"]
            if (nl, nr) != (lhs, rhs):
                failures += 1
                print(
                    f"FAIL {ident.value} {t}: enumerated ({nl}, {nr}), "
                    f"formula ({lhs}, {rhs})",
                    file=out,
                )
        print(f"set cardinalities: {len(sides)} instances checked", file=out)
    else:
        print(f"set cardinalities: skipped above {DEFAULT_MAX_EDGES} edges", file=out)
    return _verdict(failures, out, "identity checks")


def cmd_verify_roundtrip(args, out) -> int:
    failures = 0
    # each type is enumerated once per sweep, as source and as target
    cache: dict[tuple[int, ...], list[PlaneMap]] = {}

    def maps(t, max_edges) -> list[PlaneMap]:
        # a type above the bound still raises TooManyEdges, as uncached
        if t not in cache or edge_count(t) > max_edges:
            cache[t] = enumerate_maps(t, max_edges=max_edges)
        return cache[t]

    families = list(identity_families(args.max_edges))
    for t, ident, tt in families:
        row = IDENTITIES[ident]
        # every lhs decoration there and back, then every rhs one
        for side, src, bound, there, back, key in (
            ("lhs", t, DEFAULT_MAX_EDGES, row.forward, row.inverse, row.lhs_key),
            ("rhs", tt, edge_count(tt), row.inverse, row.forward, row.rhs_key),
        ):
            for m in maps(src, bound):
                for dec in enumerate_decorations(m, ident, side):
                    m2, dec2, case = there(m, dec)
                    m3, dec3, case3 = back(m2, dec2)
                    if case3 != case or key(m3, dec3) != key(m, dec):
                        failures += 1
                        print(f"FAIL {ident.value} {side} at {src} {dec}", file=out)
    print(f"round trips: {len(families)} family sweeps", file=out)
    return _verdict(failures, out, "round trips")


def cmd_verify_props(args, out) -> int:
    k = args.max_edges
    failures = 0
    n_maps = 0
    for t in admissible_types(k):
        quasi = bool(odd_positions(t))
        for m in enumerate_maps(t, max_edges=k):
            n_maps += 1
            for v in range(m.n_vertices):
                for i, counts in enumerate(direction_census(m, v), start=1):
                    if not census_fits(counts, quasi):
                        failures += 1
                        print(
                            f"FAIL direction census {t} face {i} vertex {v}: "
                            f"(toward, away, parallel) = {counts}",
                            file=out,
                        )
    print(f"direction censuses: {n_maps} maps swept", file=out)
    return _verdict(failures, out, "censuses", "direction censuses")


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

    p = sub.add_parser(
        "verify-identities", help="check the four counting identities"
    )
    p.add_argument("--max-edges", type=_at_least(1), default=4)
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser(
        "verify-roundtrip", help="run the bijection round trips exhaustively"
    )
    p.add_argument("--max-edges", type=_at_least(1), default=3)
    p.set_defaults(func=cmd_verify_roundtrip)

    p = sub.add_parser(
        "verify-props", help="sweep the toward/away/parallel censuses"
    )
    p.add_argument("--max-edges", type=_at_least(1), default=4)
    p.set_defaults(func=cmd_verify_props)

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
    except PlaneMapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
