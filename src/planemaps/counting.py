"""Exact counting of rooted plane maps with prescribed face degrees.

For a degree tuple a = (a_1, ..., a_r) with at most two odd entries,
the number of plane maps with r labelled faces of these degrees, one
marked corner per face, is

    M(a) = (E - 1)! / V! * prod_i alpha(a_i)

with E = (sum a_i) / 2 edges, V = E - r + 2 vertices and
alpha(x) = x! / (floor(x/2)! floor((x-1)/2)!).

The module also evaluates both sides of four integral identities that
relate M(a) to M(a~) for a neighbouring degree tuple a~; each identity
counts one family of decorated maps in two ways.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from enum import Enum
from math import factorial, prod
from operator import index

from .errors import (
    BadArgument,
    BadFace,
    BadParity,
    BadType,
    DegreeTooSmall,
    NoDegreeOneFace,
    NonPositiveV,
    NotBipartite,
    OddSum,
    SameFace,
    TooManyOddFaces,
)


def check_type(a: Iterable[int]) -> tuple[int, ...]:
    """Normalise a degree tuple, rejecting junk.

    Strict like the map constructor: ints, bools and objects with
    __index__ pass, while floats and strings raise BadType rather than
    being truncated or parsed.
    """
    try:
        t = tuple(map(index, a))
    except TypeError:
        raise BadType("degree tuple must consist of integers") from None
    if not t or min(t) < 1:
        raise BadType("degrees must be positive and at least one face given")
    return t


def _index(x: int, name: str) -> int:
    """x through operator.index; a float, a string or None raises BadArgument."""
    try:
        return index(x)
    except TypeError:
        raise BadArgument(f"{name} must be an integer, not {x!r}") from None


def admissible_types(max_edges: int) -> Iterator[tuple[int, ...]]:
    """All degree tuples with at most max_edges edges, by size then lex.

    Covers every composition of 2, 4, ..., 2*max_edges with zero or
    two odd parts: exactly the types carrying plane maps.  A bound that
    is not an integer raises BadArgument at the call.
    """
    return _admissible_types(_index(max_edges, "max_edges"))


def _admissible_types(max_edges: int) -> Iterator[tuple[int, ...]]:
    def compositions(total: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if total == 0:
            yield prefix
        for part in range(1, total + 1):
            yield from compositions(total - part, prefix + (part,))

    for e in range(1, max_edges + 1):
        for t in compositions(2 * e, ()):
            if sum(x % 2 for x in t) in (0, 2):
                yield t


def odd_positions(a: Iterable[int]) -> tuple[int, ...]:
    """1-based positions of the odd degrees."""
    return _odd_positions(check_type(a))


def _odd_positions(t: tuple[int, ...]) -> tuple[int, ...]:
    """odd_positions of a tuple that check_type returned."""
    if not any(map((1).__and__, t)):  # all even, as every growth starts
        return ()
    return tuple([i for i, x in enumerate(t, start=1) if x % 2])


def classify(a: Iterable[int]) -> str:
    """'bipartite' for all-even degrees, 'quasibipartite' for two odd."""
    return "quasibipartite" if _odd_pair(check_type(a)) else "bipartite"


def _odd_pair(t: tuple[int, ...]) -> tuple[int, ...]:
    """The odd positions of a checked type, none or two; TooManyOddFaces else."""
    odd = _odd_positions(t)
    if odd and len(odd) != 2:
        raise TooManyOddFaces(
            f"more than two odd faces: positions {list(odd)}"
            if len(odd) > 2
            else f"odd degree sum: single odd face at position {odd[0]}"
        )
    return odd


def edge_count(a: Iterable[int]) -> int:
    t = check_type(a)
    total = sum(t)
    if total % 2:
        raise OddSum(f"degree sum {total} is odd")
    return total // 2


def vertex_count(a: Iterable[int]) -> int:
    t = check_type(a)
    v = edge_count(t) - len(t) + 2
    if v < 1:
        raise NonPositiveV(f"degree tuple {t} forces {v} vertices")
    return v


def alpha(x: int) -> int:
    """x! / (floor(x/2)! * floor((x-1)/2)!), the per-face weight."""
    if _index(x, "a face degree") < 1:
        raise BadArgument("face degrees are positive")
    return factorial(x) // (factorial(x // 2) * factorial((x - 1) // 2))


def tutte_count(a: Iterable[int]) -> int:
    """Number of plane maps of type a with one marked corner per face."""
    t = check_type(a)
    classify(t)
    e = edge_count(t)
    v = vertex_count(t)
    num = factorial(e - 1)
    for x in t:
        num *= alpha(x)
    count, rest = divmod(num, factorial(v))
    if rest:
        raise ArithmeticError(f"count for {t} is not integral: {num}/{factorial(v)}")
    return count


class Identity(Enum):
    """The four counting identities, named by the decoration they count.

    TWO_CORNERS_SAME_FACE  an edge plus a nested ordered pair of corners
                           of the first face, against a vertex plus two
                           half-edges of the enlarged first face.
    CORNER_EACH_TWO_FACES  an edge plus one corner in each of the first
                           two faces, against a vertex plus one incoming
                           half-edge in each enlarged face.
    FACE_TO_FACE           a corner of the first face plus a half-edge
                           of the last face, against the same data with
                           the roles of the two faces exchanged.
    UNIT_FACE              a corner of the first face of a type ending
                           in a degree-one face, against a vertex plus
                           an incoming half-edge after erasing it.
    """

    TWO_CORNERS_SAME_FACE = "two-corners-same-face"
    CORNER_EACH_TWO_FACES = "corner-each-two-faces"
    FACE_TO_FACE = "face-to-face"
    UNIT_FACE = "unit-face"


def _second(identity: Identity, r: int, second: int | None) -> int:
    """second, or by default the last of r faces, face 2 for CORNER_EACH_TWO_FACES."""
    return (2 if identity is Identity.CORNER_EACH_TWO_FACES else r) if second is None else second


def _side_rule(
    identity: Identity, side: str, t: tuple[int, ...], first: int = 1, second: int | None = None
) -> None:
    """Refuse a checked type t that is not on this side of the identity.

    first and second are the faces in the identity's two roles, with
    the defaults of decoration_radices; for the rhs, t is the target.
    A face outside t raises BadFace and two given roles on one face
    SameFace; at the default roles a two-face side of a one-face type
    raises BadParity.  A failing parity or degree clause raises the
    BadParity subclass that names it.
    """
    if not isinstance(identity, Identity):
        raise BadArgument(f"unknown identity {identity!r}")
    if side not in ("lhs", "rhs"):
        raise BadArgument("side must be 'lhs' or 'rhs'")
    r = len(t)
    one_role = identity is Identity.TWO_CORNERS_SAME_FACE or (
        identity is Identity.UNIT_FACE and side == "rhs"
    )
    if second is None and r < 2 and not one_role:
        raise BadParity(f"{identity.value} needs at least two faces")
    second = _second(identity, r, second)
    if not (0 < first <= r and 0 < second <= r):
        raise BadFace(f"faces {first} and {second} outside 1..{r}")
    if first == second and not one_role:
        raise SameFace(f"needs two distinct faces, not {first} twice")
    odd = _odd_positions(t)
    if identity is Identity.TWO_CORNERS_SAME_FACE or identity is Identity.CORNER_EACH_TWO_FACES:
        same = identity is Identity.TWO_CORNERS_SAME_FACE
        if side == "lhs" or same:
            if odd:
                raise NotBipartite(f"{identity.value} {side} needs every degree even")
        elif set(odd) != {first, second}:
            raise BadParity(f"faces {first} and {second} must be exactly the odd ones")
        # the rhs faces are even lhs faces, at least 2, grown by 2 (same) or by 1
        if side == "rhs" and (t[first - 1] < 4 if same else min(t[first - 1], t[second - 1]) < 3):
            raise DegreeTooSmall(f"{identity.value} rhs needs larger faces than {t}")
    elif identity is Identity.UNIT_FACE and side == "lhs":
        if t[second - 1] != 1:
            raise NoDegreeOneFace(f"face {second} has degree {t[second - 1]}, not 1")
        if len(odd) != 2:
            raise BadParity("absorbing the unit face needs exactly two odd faces")
    else:
        # the face that loses a unit of degree: the lhs's second, the rhs's first
        lose = second if side == "lhs" else first
        if t[lose - 1] < 2:
            raise DegreeTooSmall(f"the losing face {lose} needs degree at least 2")
        if odd and (len(odd) != 2 or lose not in odd):
            raise BadParity(f"needs all degrees even, or two odd ones with face {lose} odd")


def identity_target(identity: Identity, a: Iterable[int]) -> tuple[int, ...]:
    """Degree tuple on the right-hand side of the identity, or BadParity."""
    t = check_type(a)
    _side_rule(identity, "lhs", t)
    if identity is Identity.TWO_CORNERS_SAME_FACE:
        return (t[0] + 2,) + t[1:]
    if identity is Identity.CORNER_EACH_TWO_FACES:
        return (t[0] + 1, t[1] + 1) + t[2:]
    if identity is Identity.FACE_TO_FACE:
        return (t[0] + 1,) + t[1:-1] + (t[-1] - 1,)
    return (t[0] + 1,) + t[1:-1]


def identity_families(max_edges: int) -> Iterator[tuple]:
    """(t, identity, target) for every identity that applies to an admissible type.

    Types come as admissible_types lists them and, per type, the
    identities in Identity order; the rest raise BadParity.  A bad
    bound raises as admissible_types does, at the call.
    """
    return _identity_families(admissible_types(max_edges))


def _identity_families(types: Iterator[tuple[int, ...]]) -> Iterator[tuple]:
    for t in types:
        for ident in Identity:
            try:
                yield t, ident, identity_target(ident, t)
            except BadParity:
                continue


def decoration_radices(
    identity: Identity, side: str, t: tuple[int, ...], first: int = 1, second: int | None = None
) -> tuple[int, ...]:
    """Per-coordinate radices of one side's decorations on a map of type t.

    For the rhs, t is the target type.  first and second are the faces
    in the identity's two roles: face 1, then the last face (face 2 for
    CORNER_EACH_TWO_FACES).  A dart's radix is the length of its
    directed_darts list, which is the same at every vertex.  Refusals
    come from _side_rule and in its order: a one-face type on a
    two-face side at the default roles raises BadParity, a face
    outside t BadFace, a type off the side BadParity (or its subclass).
    """
    t, first = check_type(t), _index(first, "first")
    r = len(t)
    given = None if second is None else _index(second, "second")
    _side_rule(identity, side, t, first, given)
    second = _second(identity, r, given)
    a, b, e = t[first - 1], t[second - 1], sum(t) // 2
    v = e - r + 2
    if identity is Identity.TWO_CORNERS_SAME_FACE:
        lhs, rhs = (e, a + 1, a + 2), (v, a // 2, a // 2 - 1)
    elif identity is Identity.CORNER_EACH_TWO_FACES:
        lhs, rhs = (e, a + 1, b + 1), (v, a // 2, b // 2)
    elif identity is Identity.FACE_TO_FACE:
        lhs, rhs = (a + 1, b // 2), (b + 1, a // 2)
    else:
        lhs, rhs = (a + 1,), (v, a // 2)
    return lhs if side == "lhs" else rhs


def identity_sides(identity: Identity, a: Iterable[int]) -> tuple[int, int]:
    """Evaluate both sides of the identity at type a: decorations per map times maps."""
    t = check_type(a)
    tt = identity_target(identity, t)
    lhs = prod(decoration_radices(identity, "lhs", t)) * tutte_count(t)
    rhs = prod(decoration_radices(identity, "rhs", tt)) * tutte_count(tt)
    return lhs, rhs
