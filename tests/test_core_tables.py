"""The integer core against the label code it replaced.

Categories and the comonoids they read as share one integer core
(polydyn.comonoid._Core).  The references below are the code that
worked on label tables before: the isomorphism search keyed by label,
the conversions that curried the composition table by its first factor
(after[f][g] = g∘f) and re-keyed it, and the integer tables rebuilt from
labels for the canonical form and the invariants.  On every category of
the catalog and on a renamed, reordered copy of each, the core and the
references must agree: every map found is an isomorphism and the
verdicts are equal; the reports agree record for record; every label
table agrees, key order included; and each core is the one a rebuild
from its labels gives.  Comonoids that carry no core (contractible ones,
sums, tensors, JSON) are read back as the label-table code read them.
"""

import json
import random
from collections import Counter
from collections.abc import Mapping

import pytest

from polydyn.catalog import generate_categories
from polydyn.comonoid import (
    Comonoid,
    FinCat,
    _canonical_form,
    _canonical_labels,
    _colours,
    _invariants,
    cat_isomorphic,
    category_carrier,
    category_to_comonoid,
    check_category,
    check_comonoid_laws,
    comonoid_from_json,
    comonoid_sum,
    comonoid_tensor,
    comonoid_to_category,
    contractible,
    discrete_comonoid,
    is_cat_isomorphism,
)
from polydyn.core import FinSet, tag_label

from conftest import direct_isomorphism_labels


# ---------------------------------------------------------------------------
# References: the label code the core replaced.


def _reference_after(k: FinCat) -> dict:
    """k's composition table curried by its first factor: after[f][g] is
    g∘f, for each g out of the codomain of f."""
    after = {m: {} for m in k.dom_of}
    for (g, f), h in k._compose.items():
        after[f][g] = h
    return after


def _reference_integer_tables(k: FinCat) -> tuple:
    """k on the integer tables of _canonical_form: (labels, dom, cod,
    comp), labels being the identities in object order, then the other
    morphisms in k's order."""
    objects = k.objects.elements
    labels = [k.identity[o] for o in objects]
    identities = set(labels)
    labels += [m for m, _, _ in k.morphisms if m not in identities]
    obj_index = {o: i for i, o in enumerate(objects)}
    index = {m: i for i, m in enumerate(labels)}
    n = len(labels)
    comp = [[-1] * n for _ in range(n)]
    for (g, f), h in k._compose.items():
        comp[index[g]][index[f]] = index[h]
    dom = [obj_index[k.dom_of[m]] for m in labels]
    cod = [obj_index[k.cod_of[m]] for m in labels]
    return labels, dom, cod, comp


def _reference_category_to_comonoid(k: FinCat) -> Comonoid:
    """category_to_comonoid as it shared one curried table, _after(k), as
    the rows of every object, the flat composite derived from them in
    carrier order."""
    if k._lawful is not True:
        report = check_category(k)
        if not report["ok"]:
            raise ValueError(f"category axioms fail: {report['violations'][0]!r}")
    objects = k.objects.elements
    cod_of, out = k.cod_of, k.out
    codomain = {o: {m: cod_of[m] for m in out[o]} for o in objects}
    after = _reference_after(k)
    carrier = category_carrier(k)
    dirs = carrier._dirs
    composite = {}
    for i in objects:
        table = composite[i] = {}
        for d in dirs[i].elements:
            row = after[d]
            for e in dirs[codomain[i][d]].elements:
                table[d, e] = row[e]
    return Comonoid._from_tables(carrier, dict(k.identity), codomain, composite)


def _reference_comonoid_to_category(c: Comonoid, after: dict) -> FinCat:
    """comonoid_to_category as it read a comonoid built from a category:
    its rows after[d][e], the composite of d then e, tagged with their
    source."""
    carrier = c.carrier
    labels = carrier.position_labels
    dirs = carrier._dirs
    tags = {i: {d: tag_label(i, d) for d in dirs[i].elements} for i in labels}
    morphisms = []
    compose = {}
    for i in labels:
        here, cod = tags[i], c.codomain[i]
        for d in dirs[i].elements:
            j = cod[d]
            m = here[d]
            morphisms.append((m, i, j))
            there = tags[j]
            row = after[d]
            for e in dirs[j].elements:
                compose[(there[e], m)] = here[row[e]]
    identity = {i: tags[i][c.identity[i]] for i in labels}
    return FinCat(carrier.positions_set(), morphisms, identity, compose)


def _reference_direct_isomorphism(k1: FinCat, k2: FinCat):
    """_direct_isomorphism as it searched the label tables: dicts keyed
    by label, hit counts from Counters over k1._compose and k2._compose."""
    ids1, ids2 = k1.identity, k2.identity
    position = dict.fromkeys(ids1.values(), -1)
    order = []
    for m, _, _ in k1.morphisms:
        if m not in position:
            position[m] = len(order)
            order.append(m)
    skip2 = set(ids2.values())
    # an isomorphism keeps the number of composable pairs composing to a
    # morphism (the hits of _colours), so each morphism is offered only
    # the candidates with its count, in k2's order
    hits1, hits2 = Counter(k1._compose.values()), Counter(k2._compose.values())
    by_hits = {}
    for m, _, _ in k2.morphisms:
        if m not in skip2:
            by_hits.setdefault(hits2[m], []).append(m)
    pools = [by_hits.get(hits1[m], ()) for m in order]
    # due[i]: the entries whose last non-identity morphism is order[i];
    # due[-1]: the entries with none, checked once the map is complete
    due = [[] for _ in range(len(order) + 1)]
    for (g, f), h in k1._compose.items():
        last = position[g]
        p = position[f]
        if p > last:
            last = p
        p = position[h]
        if p > last:
            last = p
        due[last].append((g, f, h))
    dom1, cod1, dom2, cod2, comp2 = k1.dom_of, k1.cod_of, k2.dom_of, k2.cod_of, k2._compose
    obj, mor, taken_obj, taken_mor = {}, {}, set(), set()
    budget = 10 * len(k1.morphisms) ** 2
    start = [0] * len(order)  # next candidate in pools[i] at each position i
    fresh = [[] for _ in order]  # objects first mapped at each position
    i = 0
    while i < len(order):
        m = order[i]
        if m in mor:  # back from position i + 1: take the last choice back
            taken_mor.discard(mor.pop(m))
            for x in fresh[i]:
                taken_obj.discard(obj.pop(x))
                del mor[ids1[x]]
        d, c = dom1[m], cod1[m]
        new = fresh[i] = []
        pool = pools[i]
        j = start[i]
        while j < len(pool):
            m2 = pool[j]
            j += 1
            if m2 in taken_mor:
                continue
            budget -= 1
            if budget < 0:
                return None
            for x, x2 in ((d, dom2[m2]), (c, cod2[m2])):
                y = obj.get(x)
                if y is None:
                    if x2 in taken_obj:
                        break
                    obj[x] = x2
                    taken_obj.add(x2)
                    mor[ids1[x]] = ids2[x2]
                    new.append(x)
                elif y != x2:
                    break
            else:
                mor[m] = m2
                for g, f, h in due[i]:
                    if comp2[mor[g], mor[f]] != mor[h]:
                        break
                else:
                    taken_mor.add(m2)
                    break  # placed: on to position i + 1
                del mor[m]
            for x in new:
                taken_obj.discard(obj.pop(x))
                del mor[ids1[x]]
            new.clear()
        else:  # no candidate left: back to position i - 1
            start[i] = 0
            i -= 1
            if i < 0:
                return None
            continue
        start[i] = j
        i += 1
    # objects with no other morphism pair up in order
    rest = iter([o for o in k2.objects.elements if o not in taken_obj])
    for o in k1.objects.elements:
        if o not in obj:
            obj[o] = o2 = next(rest)
            mor[ids1[o]] = ids2[o2]
    for g, f, h in due[-1]:
        if comp2[mor[g], mor[f]] != mor[h]:
            return None
    return obj, mor


# ---------------------------------------------------------------------------
# Inputs: the catalog, and a renamed, reordered copy of each category.


def _shuffled(rng, xs) -> list:
    xs = list(xs)
    rng.shuffle(xs)
    return xs


def _renamed(rng, k: FinCat) -> FinCat:
    """k under fresh object and morphism names, every table listed in
    another order."""
    obj = dict(zip(k.objects.elements, _shuffled(rng, [f"x{i}" for i in range(len(k.objects))])))
    labels = k.morphism_labels()
    mor = dict(zip(labels, _shuffled(rng, [f"f{i}" for i in range(len(labels))])))
    return FinCat(
        FinSet(tuple(_shuffled(rng, [obj[o] for o in k.objects.elements]))),
        _shuffled(rng, [(mor[m], obj[d], obj[c]) for m, d, c in k.morphisms]),
        dict(_shuffled(rng, [(obj[o], mor[m]) for o, m in k.identity.items()])),
        dict(_shuffled(rng, [((mor[g], mor[f]), mor[h]) for (g, f), h in k._compose.items()])),
    )


@pytest.fixture(scope="module")
def copies():
    rng = random.Random(2801)
    return [(k, _renamed(rng, k)) for k in generate_categories(3, 6)]


def _listed(x):
    """x with every mapping written as its list of items, so that == also
    compares the order of keys."""
    if isinstance(x, Mapping):
        return [(key, _listed(v)) for key, v in x.items()]
    return x


# ---------------------------------------------------------------------------
# The core is the integer tables its labels give.


def test_every_core_is_the_rebuild_from_its_labels(copies):
    for k, x in copies:
        for y in (k, x):
            labels, dom, cod, comp = _reference_integer_tables(y)
            core = y._core
            assert y._names == tuple(labels)
            assert list(core.dom) == dom and list(core.cod) == cod
            index = {m: i for i, m in enumerate(labels)}
            assert core.out == tuple(tuple(index[m] for m in y.out[o]) for o in y.objects.elements)
            composable = [(g, f) for f in range(len(labels)) for g in core.out[cod[f]]]
            assert len(composable) == len(y._compose)
            assert all(core.rows[g][f] == comp[g][f] for g, f in composable)
            assert _colours(len(y.objects), core.dom, core.cod, core.rows) == _colours(
                len(y.objects), dom, cod, comp
            )
        # the copy's canonical key, from its core and from its rebuilt
        # tables, is the catalog category's
        key = _canonical_form(len(x.objects), *_reference_integer_tables(x)[1:])[0]
        assert _canonical_labels(x)[0] == key == _canonical_labels(k)[0]
        assert _invariants(x) == _invariants(k)


# ---------------------------------------------------------------------------
# The conversions give the tables the curried reference gives.


def _same_comonoid(c: Comonoid, r: Comonoid) -> None:
    assert [(i, d.elements, d.label) for i, d in c.carrier._dirs.items()] == [
        (i, d.elements, d.label) for i, d in r.carrier._dirs.items()
    ]
    for name in ("identity", "codomain", "base", "composite"):
        assert _listed(getattr(c, name)) == _listed(getattr(r, name)), name
    assert c == r and hash(c) == hash(r)


def _same_category(k: FinCat, r: FinCat) -> None:
    assert (k.objects.elements, k.objects.label) == (r.objects.elements, r.objects.label)
    for name in ("morphisms", "dom_of", "cod_of", "out", "identity", "_compose"):
        assert _listed(getattr(k, name)) == _listed(getattr(r, name)), name
    assert k == r and hash(k) == hash(r)


def test_conversions_match_the_curried_reference(copies):
    for k, x in copies:
        for y in (k, x):
            c = category_to_comonoid(y)
            r = _reference_category_to_comonoid(y)
            _same_comonoid(c, r)
            back = comonoid_to_category(c)
            _same_category(back, _reference_comonoid_to_category(r, _reference_after(y)))
            # the comonoid read back is the one the curried reference gives
            _same_comonoid(category_to_comonoid(back), _reference_category_to_comonoid(back))


def _redrawn(rng, k: FinCat):
    """k with one composite redrawn among the morphisms of its type, so
    that k's laws may fail, or None when no composite has another
    choice."""
    changes = [
        ((g, f), h)
        for (g, f), gf in sorted(k._compose.items())
        for h, d, c in k.morphisms
        if h != gf and (d, c) == (k.dom_of[f], k.cod_of[g])
    ]
    if not changes:
        return None
    key, h = rng.choice(changes)
    return FinCat(k.objects, k.morphisms, k.identity, {**k._compose, key: h})


def test_reports_match_the_label_walks_record_for_record(copies):
    from test_law_walks import _reference_check_category

    rng = random.Random(2802)
    lawless = 0
    for k, x in copies:
        for y in (k, x, _redrawn(rng, x)):
            if y is None:
                continue
            report = check_category(y)
            assert report == _reference_check_category(y)
            lawless += not report["ok"]
            # the core read as a comonoid reports as the flat tables do
            y._lawful = True
            c = category_to_comonoid(y)
            assert check_comonoid_laws(c) == check_comonoid_laws(_reference_category_to_comonoid(y))
    assert lawless > 1500


# ---------------------------------------------------------------------------
# The search on cores finds what the label-keyed search finds.


def test_direct_search_matches_the_label_keyed_reference(copies):
    rng = random.Random(2803)
    found = missed = 0
    by_size = {}
    for k, _ in copies:
        by_size.setdefault((len(k.objects), len(k.morphisms)), []).append(k)
    for k, x in copies:
        k2 = comonoid_to_category(category_to_comonoid(x))
        pairs = [(k, x), (x, k2), (k2, k)]
        others = [o for o in by_size[len(k.objects), len(k.morphisms)] if o is not k]
        if others:
            pairs.append((_renamed(rng, rng.choice(others)), k))
        for a, b in pairs:
            got = direct_isomorphism_labels(a, b)
            want = _reference_direct_isomorphism(a, b)
            # at most six morphisms, both searches are exhaustive
            assert (got is None) == (want is None)
            assert cat_isomorphic(a, b) == (want is not None)
            if got is None:
                missed += 1
                continue
            assert is_cat_isomorphism(a, b, *got) and is_cat_isomorphism(a, b, *want)
            found += 1
    assert found == 3 * len(copies) and missed > 3000


# ---------------------------------------------------------------------------
# A comonoid without a core is indexed into one.


def _coreless_comonoids() -> list:
    """Comonoids that carry no core: contractible on 1–6 states, discrete
    ones, sums and tensors of those, and the golden comonoid JSON read
    back."""
    from test_comonoid import GOLDEN_JSON

    factors = [contractible(FinSet(tuple(f"s{i}" for i in range(n)))) for n in range(1, 7)]
    factors += [discrete_comonoid(FinSet(("p",))), discrete_comonoid(FinSet(("p", "q", "r")))]
    found = list(factors)
    for a in factors:
        for b in factors:
            found.append(comonoid_sum(a, b))
            # tensors up to 12 states keep the law walks short
            if len(a.carrier.position_labels) * len(b.carrier.position_labels) <= 12:
                found.append(comonoid_tensor(a, b))
    found += [comonoid_from_json(json.loads(text)) for text in GOLDEN_JSON.values()]
    return found


def test_coreless_comonoids_read_back_as_the_label_table_reference():
    # the reference is the label-table reading comonoid_to_category made
    # of such comonoids before it indexed them into a core
    from test_law_walks import _reordered_comonoid
    from test_law_walks import _reference_flat_comonoid_to_category

    rng = random.Random(2901)
    cases = 0
    for c in _coreless_comonoids():
        for x in (c, _reordered_comonoid(rng, c)):
            assert x._core is None
            k = comonoid_to_category(x)
            _same_category(k, _reference_flat_comonoid_to_category(x))
            # its core is the one a rebuild from its labels gives
            labels, dom, cod, comp = _reference_integer_tables(k)
            core = k._core
            assert k._names == tuple(labels)
            assert (list(core.dom), list(core.cod)) == (dom, cod)
            # one entry per composable pair, comp being -1 off them
            assert sum(map(len, core.rows)) == len(k._compose)
            assert all(h == comp[g][f] for g, row in enumerate(core.rows) for f, h in row.items())
            assert check_category(k)["ok"]
            cases += 1
    assert cases > 150


# ---------------------------------------------------------------------------
# The label tables are views over the core that read what the dicts held.


def _reference_label_tables(k: FinCat) -> dict:
    """The five label tables as FinCat derived them from its core on first
    read and kept them, as dicts: dom_of and cod_of in listing order,
    identity and out in object order, the composition table by g, then f,
    each in morphism order, under the catalog's shared keys, and else
    object by object, by f, then g."""
    objects, names, core, keys = k.objects.elements, k._names, k._core, k._keys
    dom, cod, rows = core.dom, core.cod, core.rows
    compose = {}
    if keys is not None:
        n = len(names)
        for g in range(n):
            for f in range(n):
                if cod[f] == dom[g]:
                    compose[keys[g][f]] = names[rows[g][f]]
    else:
        for fs in core.out:
            for f in fs:
                for g in core.out[cod[f]]:
                    compose[names[g], names[f]] = names[rows[g][f]]
    return {
        "dom_of": {m: d for m, d, _ in k.morphisms},
        "cod_of": {m: c for m, _, c in k.morphisms},
        "identity": {o: names[i] for i, o in enumerate(objects)},
        "out": {o: tuple([names[m] for m in ms]) for o, ms in zip(objects, core.out)},
        "_compose": compose,
    }


def test_label_views_read_what_the_derived_dicts_held(copies):
    rng = random.Random(4001)
    cases = 0
    for k, x in copies:
        back = comonoid_to_category(category_to_comonoid(x))
        for y in (k, x, back):
            for name, want in _reference_label_tables(y).items():
                view = getattr(y, name)
                assert _listed(view) == _listed(want), name
                assert len(view) == len(want) and view == want and want == view, name
                assert all(key in view for key in want) and ("", "") not in view, name
                assert view.get("no such label") is None, name
                with pytest.raises(TypeError):
                    view[next(iter(want), "")] = None
            # compose2 answers every composable pair as the table does and
            # refuses everything else as it did
            compose = y._compose
            for (g, f), h in compose.items():
                assert y.compose2(g, f) == h
            labels = y.morphism_labels()
            for g, f in [(rng.choice(labels), rng.choice(labels)) for _ in labels]:
                if (g, f) not in compose:
                    with pytest.raises(ValueError, match="is not a composable pair"):
                        y.compose2(g, f)
            with pytest.raises(ValueError, match="is not a composable pair"):
                y.compose2("no such label", labels[0] if labels else "")
            with pytest.raises(TypeError, match="unhashable"):
                y.compose2([], labels[0] if labels else "")
            cases += 1
    assert cases == 3 * len(copies)
