"""Exhaustive generation of small categories up to isomorphism.

The generator is mechanical on purpose: enumerate composition tables on
bounded data and filter by the axioms, so that claims of the form "for
every category with at most so many objects and morphisms" are backed by
an actual exhaustive list rather than a hand-curated one.

One search covers every object count (_search).  A typing gives each
non-identity morphism a (dom, cod) slot; the composites of non-identity
morphisms are filled one cell at a time, associativity is checked as
each cell is filled, and McKay's canonical augmentation keeps only the
lexicographically least table of each class among the relabelings that
preserve the typing.  One-object categories are monoids, where almost
all of the catalog mass sits (2237 classes at six morphisms alone);
with more objects only the typings least under object permutations are
searched, and each class is listed in the canonical labelling of
polydyn.comonoid (_canonical_form), the one cat_isomorphic decides
isomorphism by.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from polydyn.comonoid import FinCat, _canonical_form, _Core
from polydyn.core import FinSet, _require

__all__ = [
    "monoid_tables",
    "generate_categories",
]


def _associative_so_far(t, occ, a, b) -> bool:
    """False when the value just put in cell (a,b) breaks a defined triple.

    Only triples involving that cell can newly fail: (a,b,z) and (x,a,b)
    directly, and those whose outer product passes through it, found from
    the occurrence lists occ[a] and occ[b] of cells holding a and b.
    """
    c = t[a][b]
    ta, tb, tc = t[a], t[b], t[c]
    for z, bz in enumerate(tb):
        if bz >= 0:
            lhs = tc[z]
            rhs = ta[bz]
            if lhs >= 0 and rhs >= 0 and lhs != rhs:
                return False
    for tx in t:
        xa = tx[a]
        if xa >= 0:
            lhs = t[xa][b]
            rhs = tx[c]
            if lhs >= 0 and rhs >= 0 and lhs != rhs:
                return False
    # triples (x,y,b) with t[x][y] = a, and (a,x,y) with t[x][y] = b
    for x, y in occ[a]:
        yb = t[y][b]
        if yb >= 0:
            lhs = t[x][yb]
            if lhs >= 0 and lhs != c:
                return False
    for x, y in occ[b]:
        ax = ta[x]
        if ax >= 0:
            lhs = t[ax][y]
            if lhs >= 0 and lhs != c:
                return False
    return True


def _relabeling_smaller(t, perm, inv, rows, first) -> bool:
    """Whether relabeling t by perm (inverse inv) gives a smaller table.

    Tables are compared lexicographically on the given rows, each read
    from column first on; every cell read must be filled.
    """
    for i in rows:
        row = t[i]
        moved = t[perm[i]]
        for j in range(first, len(row)):
            cand = inv[moved[perm[j]]]
            if cand != row[j]:
                return cand < row[j]
    return False


def _relabelings(num_objects: int, dom, cod) -> list:
    """Every relabeling other than the identity that preserves the typing.

    Each is a pair (perm, inv): perm[i] is the old morphism at new index
    i, and inv, its inverse, ends in a -1 that keeps the cells off the
    composable pairs at -1.  An object permutation qualifies when it
    leaves the multiset of slots unchanged; perm sends it to the
    identities and each non-identity morphism to one in the permuted slot.
    """
    k = num_objects
    n = len(dom)
    by_slot: dict = {}
    for f in range(k, n):
        by_slot.setdefault((dom[f], cod[f]), []).append(f)
    slots = sorted(zip(dom[k:], cod[k:]))
    identity = list(range(n))
    out = []
    for pi in itertools.permutations(range(k)):
        if sorted((pi[a], pi[b]) for a, b in slots) != slots:
            continue
        groups = [(fs, by_slot[(pi[a], pi[b])]) for (a, b), fs in by_slot.items()]
        for images in itertools.product(*(itertools.permutations(h) for _, h in groups)):
            perm = list(pi) + [0] * (n - k)
            for (fs, _), img in zip(groups, images):
                for f, h in zip(fs, img):
                    perm[f] = h
            if perm == identity:
                continue
            inv = [0] * n + [-1]
            for i, v in enumerate(perm):
                inv[v] = i
            out.append((perm, inv))
    return out


def _search(num_objects: int, dom, cod):
    """Yield the least associative table of each class for this typing.

    Morphisms are 0..n-1, the identity of object i being morphism i, and
    t[g][f] is g after f, -1 off the composable pairs.  Identity
    composites are forced; the composable pairs of non-identity morphisms
    are filled in row order, each with the morphisms of its slot in
    increasing order, so tables come out in ascending lexicographic order.
    Associativity is checked incrementally as each cell is filled
    (_associative_so_far).

    Isomorphism classes are cut by McKay's canonical augmentation: after
    the last cell of row g, a branch is dropped when a relabeling fixing
    0..g makes rows up to g smaller, and at the last cell every
    typing-preserving relabeling is tried, which leaves exactly the least
    table of each class.  Relabelings fix identity rows and columns, so
    comparisons read rows and columns from num_objects on.  A typing that
    leaves some composite nowhere to land yields nothing.
    """
    k = num_objects
    n = len(dom)
    t = [[-1] * n for _ in range(n)]
    for f in range(n):
        t[f][dom[f]] = f
        t[cod[f]][f] = f
    # cells holding each value; appended and popped in step with the DFS
    occ = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if t[a][b] >= 0:
                occ[t[a][b]].append((a, b))
    cells = [(g, f) for g in range(k, n) for f in range(k, n) if cod[f] == dom[g]]
    if not cells:
        yield tuple(map(tuple, t))
        return
    cands = [
        [h for h in range(n) if dom[h] == dom[f] and cod[h] == cod[g]] for g, f in cells
    ]
    if not all(cands):
        return
    relabelings = _relabelings(k, dom, cod)
    last = len(cells) - 1
    cuts = [None] * len(cells)  # (rows, relabelings) after the last cell of a row
    for c, (g, _) in enumerate(cells):
        if c == last:
            cuts[c] = (range(k, g + 1), relabelings)
        elif cells[c + 1][0] != g:
            fixing = [q for q in relabelings if q[0][: g + 1] == list(range(g + 1))]
            cuts[c] = (range(k, g + 1), fixing)
    choice = [-1] * len(cells)
    c = 0
    while c >= 0:
        a, b = cells[c]
        opts = cands[c]
        i = choice[c]
        if i >= 0:
            occ[opts[i]].pop()
        i += 1
        if i == len(opts):
            t[a][b] = -1
            choice[c] = -1
            c -= 1
            continue
        choice[c] = i
        v = opts[i]
        t[a][b] = v
        occ[v].append((a, b))
        if not _associative_so_far(t, occ, a, b):
            continue
        cut = cuts[c]
        if cut is not None and any(
            _relabeling_smaller(t, p, inv, cut[0], k) for p, inv in cut[1]
        ):
            continue
        if c == last:
            yield tuple(map(tuple, t))
            continue
        c += 1


@lru_cache(maxsize=None, typed=True)
def monoid_tables(order: int) -> tuple:
    """All monoid multiplication tables of the given order up to isomorphism.

    Returns a tuple of tables, each a tuple of row tuples of ints.  The
    identity is element 0 and table[a][b] is the product a*b, so reading
    b as "first" and a as "second" makes the table a one-object
    composition table, and the tables are those of _search on one
    object: the lexicographically least of each class among relabelings
    fixing 0, in ascending order.  The counts for orders 1..7 are 1, 2,
    7, 35, 228, 2237, 31559 (OEIS A058129).  From a cold cache order 6
    takes about 2 s and order 7 about 130 s (2 cores, CPython 3.11.7).
    Equal rows are one tuple object: the 14728 rows of orders 1..6 hold
    832 distinct ones.
    """
    _require(order, int, "order")
    if order < 1:
        raise ValueError("order must be at least 1")
    rows = {}
    return tuple(
        tuple([rows.setdefault(row, row) for row in t])
        for t in _search(1, [0] * order, [0] * order)
    )


class _Parts:
    """The immutable parts of the categories of one generate_categories call.

    Morphism labels m0, m1, .., object labels o0, o1, .., the map from
    each label to its morphism for each morphism count, the (g, f) keys
    of the composition tables, the (label, dom, cod) morphism triples, the
    objects FinSet of each object count and the morphisms out of each
    object of each typing are made once here and shared by every category
    built from them.  No category stores a label table: dom_of, cod_of,
    out, identity and the composition table are read-only views that
    read its core and these parts on every access.
    """

    def __init__(self, max_objects: int, max_morphisms: int):
        # a category has at least one morphism, its identity, per object
        names = tuple(f"o{i}" for i in range(min(max_objects, max_morphisms)))
        labels = tuple(f"m{j}" for j in range(max_morphisms))
        self.names = names
        self.labels = labels
        self.prefixes = [labels[:n] for n in range(max_morphisms + 1)]
        self.indices = [{m: j for j, m in enumerate(ms)} for ms in self.prefixes]
        self.objects = [FinSet(names[:k]) for k in range(len(names) + 1)]
        self.keys = [[(g, f) for f in labels] for g in labels]
        self.triples = [[[(m, d, c) for c in names] for d in names] for m in labels]
        self.outs = {}

    def out(self, num_objects: int, dom) -> tuple:
        """The morphisms out of each object, for a typing dom."""
        key = (num_objects, tuple(dom))
        out = self.outs.get(key)
        if out is None:
            lists = [[] for _ in range(num_objects)]
            for m, d in enumerate(dom):
                lists[d].append(m)
            out = self.outs[key] = tuple(map(tuple, lists))
        return out


def _build_fincat(parts: _Parts, num_objects: int, dom, cod, comp) -> FinCat:
    """The category on these integer tables, which become its core as
    they are: comp[g][f] is g∘f, -1 off the composable pairs."""
    n = len(dom)
    triples = parts.triples
    return FinCat._on_core(
        parts.objects[num_objects],
        _Core(dom, cod, parts.out(num_objects, dom), comp),
        names=parts.prefixes[n],
        morphisms=tuple([triples[j][dom[j]][cod[j]] for j in range(n)]),
        keys=parts.keys,
        index=parts.indices[n],
    )


@lru_cache(maxsize=None)
def _multi_object_keys(num_objects: int, num_extra: int) -> tuple:
    """Sorted canonical keys of the classes with this many objects and
    non-identity morphisms.

    Only typings of the non-identity morphisms that are least under
    object permutations are searched, so _search gives each class exactly
    once.  Its key is that of comonoid._canonical_form, which
    cat_isomorphic uses too.
    """
    k = num_objects
    object_perms = list(itertools.permutations(range(k)))
    all_slots = [(a, b) for a in range(k) for b in range(k)]
    keys = []
    for spec in itertools.combinations_with_replacement(all_slots, num_extra):
        if any(sorted((p[a], p[b]) for a, b in spec) < list(spec) for p in object_perms):
            continue
        dom = list(range(k)) + [s[0] for s in spec]
        cod = list(range(k)) + [s[1] for s in spec]
        for comp in _search(k, dom, cod):
            keys.append(_canonical_form(k, dom, cod, comp)[0])
    return tuple(sorted(keys))


def _from_key(parts: _Parts, num_objects: int, key) -> FinCat:
    """The category of a key of _multi_object_keys, carrying its canonical
    labelling: the key is its own canonical key under the identity
    labelling, so cat_isomorphic need not search for it again."""
    slots, table = key
    n = num_objects + len(slots)
    dom = list(range(num_objects)) + [s[0] for s in slots]
    cod = list(range(num_objects)) + [s[1] for s in slots]
    comp = [table[a * n : (a + 1) * n] for a in range(n)]
    k = _build_fincat(parts, num_objects, dom, cod, comp)
    k._canonical = (key, k.objects.elements, parts.prefixes[n])
    return k


@lru_cache(maxsize=None, typed=True)
def generate_categories(max_objects: int = 3, max_morphisms: int = 6) -> tuple:
    """Every category within the size bounds, one per isomorphism class.

    Identities count toward the morphism bound, so a category with k
    objects carries at most max_morphisms - k non-identity morphisms.
    The empty category is included (it is the one category with zero
    objects).  Objects are labeled o0, o1, ..; morphisms m0, m1, .. with
    the identity of oi being mi.

    The result is a tuple in a deterministic order: by object count,
    then morphism count, then canonical table.  One-object categories
    come from monoid_tables, larger ones from _multi_object_keys; both
    read the one typed search.
    """
    _require(max_objects, int, "max_objects")
    _require(max_morphisms, int, "max_morphisms")
    if max_objects < 0 or max_morphisms < 0:
        raise ValueError("bounds must be non-negative")
    parts = _Parts(max_objects, max_morphisms)
    cats = [_build_fincat(parts, 0, [], [], [])]
    if max_objects >= 1:
        for n in range(1, max_morphisms + 1):
            zeros = (0,) * n  # the one typing of a monoid, shared by its tables
            for table in monoid_tables(n):
                cats.append(_build_fincat(parts, 1, zeros, zeros, table))
    for k in range(2, max_objects + 1):
        for m in range(max_morphisms - k + 1):
            for key in _multi_object_keys(k, m):
                cats.append(_from_key(parts, k, key))
    return tuple(cats)
