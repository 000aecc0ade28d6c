"""Reference stable-quotient zero test, kept for tests only.

This is the projected route that ``steinpoly.st2`` replaced. Every
reduction first projects the bar words along a seeded functional h with
``p_H_project`` (keeping the words all of whose letters pair nonzero with
h) and then reduces modulo the shuffle span. ``_h_functional`` redraws h
up to 64 times so that it pairs nonzero with every given line, and falls
back to its last draw when none does. The ambient fingerprint draws h in
the echelon coordinates of the factors' support and places it on that
support's pivot columns, without avoiding any line.

The kernel reduces modulo the shuffle span directly, which is the same as
projecting along an h transverse to every letter.
"""
from steinpoly.barcplx import Bar, p_H_project, shuffle_span_reduce
from steinpoly.qlinalg import Subspace, split_seed
from steinpoly.st2 import St2, embed_s
from steinpoly.steinberg import Point


def _h_functional(seed: int, dim: int, lines=(), label: str = "") -> Point:
    """Seeded functional with small positive entries, avoiding the given lines.

    Any nonzero functional gives a faithful projection on the stable
    quotient; avoiding the occurring lines just keeps witnesses fat.
    """
    rng = split_seed(seed, f"h:{dim}:{label}")
    h = tuple(rng.randint(1, 97) for _ in range(dim))
    for _ in range(64):
        if all(sum(x * y for x, y in zip(h, p, strict=True)) for p in lines):
            break
        h = tuple(rng.randint(1, 97) for _ in range(dim))
    return h


def bar_infty_reduce(x: Bar, seed: int = 0) -> Bar:
    """Canonical remainder of a bar element in the stable quotient.

    Projects along a seeded functional transverse to every letter, then
    reduces modulo the shuffle span; empty output certifies zero.
    """
    lines = sorted({p for (word, _exps) in x.terms for p in word})
    h = _h_functional(seed, x.ambient, lines=tuple(lines))
    return shuffle_span_reduce(p_H_project(x, h))


def is_zero_st_infty(x: St2, seed: int = 0) -> bool:
    """Zero test in the quotient where shuffle products vanish.

    Reduces the s-image with bar_infty_reduce; the projection is faithful
    on the quotient for any choice of functional, so the verdict does not
    depend on the seed.
    """
    return not bar_infty_reduce(embed_s(x), seed).terms


def st_infty_fingerprint(x: St2, seed: int = 0) -> dict:
    """Canonical class coordinates of a tensor, read in ambient coordinates.

    w is the span of the first factors' points. The functional is the one
    drawn from (seed, w) in w's echelon coordinates, with its entries
    placed at w's pivot columns: each RREF row of w has a 1 at its pivot
    and the other rows vanish there, so for every p in w the ambient
    pairing <h, p> equals the pairing of h's local entries with p's
    echelon coordinates. The s-image is projected along h and reduced to
    the representative of barcplx.shuffle_span_reduce; equal classes on
    the same support give equal dictionaries regardless of presentation.
    """
    w = Subspace.span([p for key_a, _kb, _e in x.terms for p in key_a], x.ambient)
    h = [0] * x.ambient
    for p, hi in zip(w.pivots, _h_functional(seed, w.dim, label=repr(w.rows))):
        h[p] = hi
    return dict(shuffle_span_reduce(p_H_project(embed_s(x), h)).terms)
