"""The contour validation as it was before the constructor walked once per mark.

_walk_all here walks every dart, checks that next is a permutation
with its own _inverse, and names the first failing check with
NotPermutation, FaceMismatch or BadMark.  Its code is kept unchanged
as the reference that tests/test_maps.py compares the constructor's
walk and its refusals against, input by input.
"""

from planemaps.errors import BadMark, FaceMismatch, NotPermutation


def _inverse(perm: tuple[int, ...]) -> list[int] | None:
    """perm^-1, or None unless perm is a permutation of 0..n-1.

    One pass: a value above n - 1 raises IndexError and a repeated one
    leaves a -1 behind; negative values index from the end, so they
    are refused on their own.
    """
    inv = [-1] * len(perm)
    try:
        for d, e in enumerate(perm):
            inv[e] = d
    except IndexError:
        return None
    if -1 in inv or min(perm, default=0) < 0:
        return None
    return inv


def _walk_all(
    next_t: tuple[int, ...], face_t: tuple[int, ...], marked_t: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Contours and prev of given labels, walking every dart.

    Checks that next is a permutation, that each next-orbit carries one
    face label, that the labels are exactly 1..r and that face i is
    marked at a dart of its own contour, raising the error class of the
    first check that fails.  It accepts exactly the inputs whose labels
    _walk_labels writes.
    """
    n = len(next_t)
    prev_t = _inverse(next_t)
    if prev_t is None:
        raise NotPermutation(f"next is not a permutation of 0..{n - 1}")
    if len(face_t) != n:
        raise FaceMismatch("face labelling does not cover the dart set")

    # walk next-orbits; each orbit is one face and must carry one label
    contours: dict[int, list[int]] = {}
    seen = [False] * n
    for d in range(n):
        if seen[d]:
            continue
        label = face_t[d]
        if label in contours:
            raise FaceMismatch(f"two contours share the label {label}")
        orbit = contours[label] = []
        e = d
        while not seen[e]:
            if face_t[e] != label:
                raise FaceMismatch("face label changes along a contour")
            seen[e] = True
            orbit.append(e)
            e = next_t[e]
    r = len(contours)
    if sorted(contours) != list(range(1, r + 1)):
        raise FaceMismatch("face labels are not exactly 1..r")

    if len(marked_t) != r:
        raise BadMark("need exactly one marked dart per face")
    normed = []
    for i, d in enumerate(marked_t, start=1):
        if not 0 <= d < n or face_t[d] != i:
            raise BadMark(f"marked dart of face {i} does not lie on it")
        orbit = contours[i]
        k = orbit.index(d)
        normed.append(tuple(orbit[k:] + orbit[:k]))
    return tuple(normed), tuple(prev_t)
