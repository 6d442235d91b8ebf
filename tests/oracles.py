"""Independent reference computations used to freeze expected values.

Everything here deliberately avoids the package's own linear algebra and
topology code: dimensions are obtained by brute-force path enumeration and
surfaces are measured by counting cells, so agreement with the library is
meaningful evidence rather than a tautology.
"""
from __future__ import annotations

from fractions import Fraction


def forbidden_pairs(presentation) -> set[tuple[str, str]]:
    """The consecutive arrow pairs killed by monomial relations.

    Raises if any relation is not a single length-two path, since only
    then does pair-avoidance characterise a basis.
    """
    pairs: set[tuple[str, str]] = set()
    for rel in presentation.relations:
        if len(rel) != 1 or len(rel[0]) != 2:
            raise ValueError(f"not a monomial quadratic relation: {rel!r}")
        pairs.add((rel[0][0], rel[0][1]))
    return pairs


def monomial_path_count(presentation, cap: int = 100000, nilpotent_loops=()) -> int:
    """Dimension of a monomial quadratic path algebra by enumeration.

    Counts the empty path at every vertex plus every composable arrow
    sequence that avoids the forbidden pairs and the square of each loop
    in ``nilpotent_loops`` (so a skew-gentle triple counts with its special
    loops squaring to zero).  ``cap`` guards against relation-free cycles.
    """
    pairs = forbidden_pairs(presentation)
    pairs.update((e, e) for e in nilpotent_loops)
    by_source: dict[str, list] = {v: [] for v in presentation.vertices}
    for a in presentation.arrows:
        by_source[a.source].append(a)
    total = len(presentation.vertices)
    stack = [(a,) for a in presentation.arrows]
    while stack:
        path = stack.pop()
        total += 1
        if total > cap:
            raise RuntimeError("path count exceeded cap; algebra looks infinite")
        last = path[-1]
        for nxt in by_source[last.target]:
            if (last.id, nxt.id) not in pairs:
                stack.append(path + (nxt,))
    return total


def euler_characteristic(surface) -> int:
    """V - E + F directly from the cell counts of the encoding."""
    v = len(surface.points)
    e = len(surface.arcs) + len(surface.bsegs)
    f = len(surface.polygons)
    return v - e + f


def boundary_circle_count(surface) -> int:
    """Number of boundary circles, by following segment endpoints."""
    succ = {}
    start_of = {}
    for b in surface.bsegs:
        start_of[b.tail] = b.id
    for b in surface.bsegs:
        succ[b.id] = start_of[b.head]
    seen: set[str] = set()
    circles = 0
    for b in surface.bsegs:
        if b.id in seen:
            continue
        circles += 1
        cur = b.id
        while cur not in seen:
            seen.add(cur)
            cur = succ[cur]
    return circles


def genus_from_counts(chi: int, boundary_circles: int) -> Fraction:
    """Genus of a connected oriented surface from its characteristic."""
    return Fraction(2 - chi - boundary_circles, 2)


def poincare_hopf_total(surface) -> Fraction:
    """4 - 4g, which sum(w + 2) over the boundary components and interior
    points of a line field on a connected surface must equal (Poincare-Hopf;
    Lekili-Polishchuk, arXiv 1801.06370), with g from the cell counts."""
    genus = genus_from_counts(euler_characteristic(surface), boundary_circle_count(surface))
    return 4 - 4 * genus


def mat_rank(rows: list[list[Fraction]]) -> int:
    """Row rank over the rationals by naive elimination."""
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        pivot = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def skew_group_table(algebra, images) -> dict:
    """The crossed product of ``algebra`` with ``{1, s}``, cell by cell.

    Written straight from ``(x ⊗ g)(y ⊗ h) = x · g(y) ⊗ (g + h)``:
    ``images[j]`` is ``s(b_j)`` keyed by basis index, and ``x · g(y)`` is
    expanded through the given product table of ``algebra`` one term at a
    time.  Returns ``{((x, g), (y, h)): {(z, g + h): coefficient}}`` over
    the basis labels, with zero coefficients dropped.
    """
    labels = algebra.labels
    out = {}
    for i, x in enumerate(labels):
        for g in (0, 1):
            for j, y in enumerate(labels):
                gy = images[j] if g else {j: Fraction(1)}
                product: dict = {}
                for k, c in gy.items():
                    for m, d in algebra.table[i][k].items():
                        product[m] = product.get(m, 0) + c * d
                for h in (0, 1):
                    out[((x, g), (y, h))] = {
                        (labels[m], (g + h) % 2): c for m, c in product.items() if c
                    }
    return out


def corner_dimension(algebra, idempotent) -> int:
    """Dimension of the corner ``e·A·e`` as the rank of the sandwiches.

    Each ``e·b_i·e`` is expanded through the product table of ``algebra``
    one term at a time into a dense row over the basis; the corner is
    spanned by these rows, so its dimension is their rank.
    """
    n = len(algebra.table)
    rows = []
    for i in range(n):
        left = [Fraction(0)] * n  # e · b_i
        for p, c in idempotent.items():
            for m, d in algebra.table[p][i].items():
                left[m] += c * d
        row = [Fraction(0)] * n  # (e · b_i) · e
        for m, c in enumerate(left):
            if not c:
                continue
            for q, d in idempotent.items():
                for k, x in algebra.table[m][q].items():
                    row[k] += c * d * x
        if any(row):
            rows.append(row)
    return mat_rank(rows)


def generated_dimension(algebra, gens) -> int:
    """Dimension of the unital subalgebra generated by ``gens``.

    Every element is a dense row over the basis, and a product is expanded
    through the product table of ``algebra`` one term at a time.  Starting
    from the unit and the generators, every independent row is multiplied
    by every generator on both sides until no product is independent of
    the rows kept; the dimension is the rank of those rows.
    """
    n = len(algebra.table)

    def dense(x):
        row = [Fraction(0)] * n
        for k, c in x.items():
            row[k] += c
        return row

    def times(x, y):
        row = [Fraction(0)] * n
        right = [(j, d) for j, d in enumerate(y) if d]
        for i, c in enumerate(x):
            if not c:
                continue
            for j, d in right:
                for k, e in algebra.table[i][j].items():
                    row[k] += c * d * e
        return row

    echelon: list[tuple[int, list]] = []  # (pivot column, row with pivot 1)

    def independent(row) -> bool:
        row = list(row)
        for col, basis_row in echelon:
            if row[col]:
                factor = row[col]
                row = [x - factor * y for x, y in zip(row, basis_row)]
        col = next((k for k, x in enumerate(row) if x), None)
        if col is None:
            return False
        inv = Fraction(1) / row[col]
        echelon.append((col, [x * inv for x in row]))
        return True

    generators = [dense(g) for g in gens]
    kept = [row for row in [dense(algebra.unit)] + generators if independent(row)]
    frontier = list(kept)
    while frontier:
        new = []
        for w in frontier:
            for g in generators:
                for row in (times(w, g), times(g, w)):
                    if independent(row):
                        kept.append(row)
                        new.append(row)
        frontier = new
    return mat_rank(kept)


def word_product(presentation, values, x, y) -> dict:
    """The product ``x · y`` of two path labels (``y`` first) by rewriting words.

    Labels are ``(source vertex, arrows in application order)``.  The two
    words are concatenated; each repeat of a special loop ``e`` (a key of
    ``values``) is dropped and multiplies the coefficient by ``values[e]``.
    The product is zero when the words do not compose, when the rewritten
    word contains a single-path relation, or when the coefficient is zero.
    Returns ``{label: coefficient}``.
    """
    ends = {a.id: (a.source, a.target) for a in presentation.arrows}
    (x_source, x_word), (y_source, y_word) = x, y
    y_target = ends[y_word[-1]][1] if y_word else y_source
    if y_target != x_source:
        return {}
    coeff = Fraction(1)
    word: list[str] = []
    for a in y_word + x_word:
        if word and word[-1] == a and a in values:
            coeff *= values[a]
        else:
            word.append(a)
    pairs = forbidden_pairs(presentation)
    if not coeff or any(pair in pairs for pair in zip(word, word[1:])):
        return {}
    return {(y_source, tuple(word)): coeff}
