"""The law checks against reference walks that visit every cell.

Once the unit laws hold, check_category skips the composable triples with
an identity in them and check_comonoid_laws the coassociativity cells that
read an identity direction.  The reference walks below are the two checks
as they were before that: they visit every cell.  On every input here the
reports must be equal, records and their order included, and so must the
verdict kept on the checked object.  The order tests list equal tables
in another order and ask for the same reports, records compared as a
multiset, the same round trip and the same isomorphism verdicts,
invariants and canonical keys.

The conversions between categories and comonoids hand over the curried
composition table.  The reference conversions below re-key it through a
flat table, as the conversions did before; the outputs must agree field
by field, the order of every dict and tuple included.
"""

import itertools
import json
import random
from collections import Counter
from collections.abc import Mapping, MutableMapping

from polydyn import comonoid
from polydyn.catalog import generate_categories
from polydyn.comonoid import (
    Comonoid,
    FinCat,
    _canonical_labels,
    _comult_label,
    _invariants,
    cat_isomorphic,
    category_carrier,
    category_to_comonoid,
    check_category,
    check_comonoid_laws,
    comonoid_sum,
    comonoid_to_category,
    comonoid_tensor,
    contractible,
)
from polydyn.core import FinPoly, FinSet, fn_label, make_poly, pair_label, tag_label


def _reference_check_category(k: FinCat) -> dict:
    """check_category as it walked every composable triple."""
    cod_of, out, identity = k.cod_of, k.out, k.identity
    labels = k.morphism_labels()
    after = {m: {} for m in labels}
    for (g, f), h in k._compose.items():
        after[f][g] = h
    violations = []
    for m in labels:
        left = after[m][identity[cod_of[m]]]
        if left != m:
            violations.append({"law": "left_identity", "morphism": m, "got": left})
        right = after[identity[k.dom_of[m]]][m]
        if right != m:
            violations.append({"law": "right_identity", "morphism": m, "got": right})
    for f in labels:
        then_f = after[f]
        for g in out[cod_of[f]]:
            then_gf = after[then_f[g]]
            then_g = after[g]
            for h in out[cod_of[g]]:
                left = then_gf[h]
                right = then_f[then_g[h]]
                if left != right:
                    violations.append(
                        {
                            "law": "associativity",
                            "triple": [h, g, f],
                            "left": left,
                            "right": right,
                        }
                    )
    k._lawful = not violations
    return {"ok": not violations, "violations": violations}


def _reference_check_comonoid_laws(c: Comonoid) -> dict:
    """check_comonoid_laws as it walked every coassociativity cell."""
    if not isinstance(c, Comonoid):
        raise TypeError(f"c must be a Comonoid, not {type(c).__name__}")
    carrier = c.carrier
    # every key read below is a position: _check_tables guarantees that
    # bases and codomains are
    dirs = carrier._dirs
    ident, base, cod = c.identity, c.base, c.codomain
    curried = {}
    comp = {}
    for i, table in c.composite.items():
        rows = curried.get(id(table))
        if rows is None:
            rows = curried[id(table)] = {}
            for (d, e), v in table.items():
                row = rows.get(d)
                if row is None:
                    row = rows[d] = {}
                row[e] = v
        comp[i] = rows
    violations = []

    # Left counitality: the left unitor after (counit ∘̂ id) after comult
    # must be the identity.  At position i with comult target (i1, phi) the
    # composite sends i to phi(eps(i1)) and pulls e back to
    # comult♯(eps(i1), e).
    for i in carrier.position_labels:
        s = ident[base[i]]
        pos = cod[i][s]
        if pos != i:
            violations.append(
                {"law": "left_counit", "position": i, "left": pos, "right": i}
            )
            continue
        then_s = comp[i][s]
        for e in dirs[i].elements:
            v = then_s[e]
            if v != e:
                violations.append(
                    {
                        "law": "left_counit",
                        "position": i,
                        "direction": e,
                        "left": v,
                        "right": e,
                    }
                )

    # Right counitality: the right unitor after (id ∘̂ counit) after comult.
    # The composite sends i to i1 and pulls d back to comult♯(d, eps(phi(d))).
    for i in carrier.position_labels:
        i1 = base[i]
        if i1 != i:
            violations.append(
                {"law": "right_counit", "position": i, "left": i1, "right": i}
            )
            continue
        phi = cod[i]
        composite = comp[i]
        for d in dirs[i1].elements:
            v = composite[d][ident[phi[d]]]
            if v != d:
                violations.append(
                    {
                        "law": "right_counit",
                        "position": i,
                        "direction": d,
                        "left": v,
                        "right": d,
                    }
                )

    # Coassociativity: the associator after (comult ∘̂ id) after comult must
    # equal (id ∘̂ comult) after comult.  Both sides land in
    # carrier∘(carrier∘carrier).  At i with comult target (i1, phi) and
    # comult(i1) = (i2, psi), the left side's position is (i2, e ↦ (psi(e),
    # g ↦ phi(comp_i1(e, g)))) and the right side's is (i1, d ↦
    # comult(phi(d))); the labels are rendered only for a violation.
    # Where base[i] is i, the check at i reads only the direction set, the
    # codomain and the composite table at i (plus tables at the positions
    # they lead to), so positions sharing those three objects pass or fail
    # together: a set that passed once is not walked again.
    passed = set()
    for i in carrier.position_labels:
        i1 = base[i]
        phi = cod[i]
        composite = comp[i]
        shared = (id(dirs[i]), id(phi), id(composite)) if i1 == i else None
        if shared in passed:
            continue
        before = len(violations)
        i2 = base[i1]
        psi = cod[i1]
        comp1 = comp[i1]
        i1dirs = dirs[i1].elements
        # the two positions agree when i1 is its own base and, for each e
        # at i1, comult(phi(e)) is (psi(e), g ↦ phi(comp_i1(e, g)));
        # the walk stops at the first e where they do not
        mismatch = i2 != i1
        if not mismatch:
            for e in i1dirs:
                j = psi[e]
                k = phi[e]
                if j != base[k]:
                    mismatch = True
                    break
                row = comp1[e]
                cod_k = cod[k]
                for g in dirs[j].elements:
                    if phi[row[g]] != cod_k[g]:
                        mismatch = True
                        break
                if mismatch:
                    break
        if mismatch:
            chi = {}
            for e in dirs[i2].elements:
                j = psi[e]
                jdirs = dirs[j].elements
                inner = {g: phi[comp1[e][g]] for g in jdirs}
                chi[e] = pair_label(j, fn_label(inner, jdirs))
            table = {d: _comult_label(c, phi[d]) for d in i1dirs}
            violations.append(
                {
                    "law": "coassociativity",
                    "position": i,
                    "left": pair_label(i2, fn_label(chi, dirs[i2].elements)),
                    "right": pair_label(i1, fn_label(table, i1dirs)),
                }
            )
            continue
        for d in i1dirs:
            k = phi[d]
            then_d = composite[d]
            then_d1 = comp1[d]
            inner = comp[k]
            cod_k = cod[k]
            for e in dirs[base[k]].elements:
                left_row = composite[then_d1[e]]
                inner_e = inner[e]
                for g in dirs[cod_k[e]].elements:
                    lv = left_row[g]
                    rv = then_d[inner_e[g]]
                    if lv != rv:
                        violations.append(
                            {
                                "law": "coassociativity",
                                "position": i,
                                "direction": pair_label(d, pair_label(e, g)),
                                "left": lv,
                                "right": rv,
                            }
                        )
        if shared is not None and len(violations) == before:
            passed.add(shared)

    c._lawful = not violations
    return {"ok": not violations, "violations": violations}



def _same_walk(check, reference, x) -> dict:
    """Run both walks on x, each with no verdict kept before it; assert
    that they agree and return the report."""
    x._lawful = None
    want = reference(x)
    kept = x._lawful
    x._lawful = None
    assert check(x) == want
    assert x._lawful is kept is want["ok"]
    return want


def _kinds(report) -> frozenset:
    """The laws a report names, coassociativity split into records at a
    position ("coassociativity") and at a direction ("coassociativity@")."""
    return frozenset(
        v["law"] + ("@" if v["law"] == "coassociativity" and "direction" in v else "")
        for v in report["violations"]
    )


UNIT_LAWS = {"left_identity", "right_identity", "left_counit", "right_counit"}


# ---------------------------------------------------------------------------
# Inputs.


def _random_category(rng):
    """A random typed composition table on 1-3 objects and 0-5 other
    morphisms: unital about half the time, and then with one composite
    redrawn about a third of the time."""
    while True:
        objects = [f"o{i}" for i in range(rng.randint(1, 3))]
        identity = {o: f"e{i}" for i, o in enumerate(objects)}
        morphisms = [(identity[o], o, o) for o in objects]
        morphisms += [
            (f"m{j}", rng.choice(objects), rng.choice(objects))
            for j in range(rng.randint(0, 5))
        ]
        typed = {}
        for m, d, c in morphisms:
            typed.setdefault((d, c), []).append(m)
        # each composable pair and the morphisms its composite may be
        cells = {
            (g, f): typed.get((d, c2))
            for f, d, c in morphisms
            for g, d2, c2 in morphisms
            if d2 == c
        }
        if all(cells.values()):
            break
    ids = set(identity.values())
    unital = rng.random() < 0.5
    compose = {}
    for (g, f), choices in cells.items():
        if unital and g in ids:
            compose[g, f] = f
        elif unital and f in ids:
            compose[g, f] = g
        else:
            compose[g, f] = rng.choice(choices)
    if unital and rng.random() < 1 / 3:
        key = rng.choice(sorted(compose))
        compose[key] = rng.choice(cells[key])
    return FinCat(FinSet(tuple(objects)), morphisms, identity, compose)


def _order_three_tables():
    """Every one-object table on e, a, b whose row and column of e are
    forced: 81 tables, all unital."""
    for values in itertools.product("eab", repeat=4):
        compose = {(g, f): f if g == "e" else g for g in "eab" for f in "eab" if "e" in (g, f)}
        compose.update(zip(itertools.product("ab", repeat=2), values))
        yield FinCat(FinSet(("*",)), [(m, "*", "*") for m in "eab"], {"*": "e"}, compose)


def _comonoid_of(k) -> Comonoid:
    """k's tables as a comonoid, read as category_to_comonoid reads them
    but without checking the axioms first."""
    objects, out, cod_of = k.objects.elements, k.out, k.cod_of
    return Comonoid._from_tables(
        category_carrier(k),
        dict(k.identity),
        {o: {m: cod_of[m] for m in out[o]} for o in objects},
        {
            o: {(m, m2): k._compose[m2, m] for m in out[o] for m2 in out[cod_of[m]]}
            for o in objects
        },
    )


def _shared_comonoid(rng, unital: bool, broken: bool = False) -> Comonoid:
    """Random comonoid tables on 1-4 positions in up to two groups.

    The positions of a group share one direction set, one codomain table
    and one composite table, and each has its own identity.  Unital
    tables obey both counit laws; broken ones then have one composite of
    each group redrawn.
    """
    labels = [f"p{i}" for i in range(rng.randint(1, 4))]
    groups = {}
    for p in labels:
        groups.setdefault(rng.randrange(2), []).append(p)
    spec, identity, owners = [], {}, []
    for members in groups.values():
        dirs = FinSet(tuple(f"d{j}" for j in range(len(members) + rng.randint(0, 2))))
        ids = rng.sample(dirs.elements, len(members))
        identity.update(zip(members, ids))
        owners.append(dict(zip(ids, members)))
        spec += [(p, dirs) for p in members]
    carrier = FinPoly(spec)
    codomain, composite = {}, {}
    for members, owner in zip(groups.values(), owners):
        dirs = carrier.directions(members[0]).elements
        cod = {d: owner[d] if unital and d in owner else rng.choice(labels) for d in dirs}
        comp = {}
        for d in dirs:
            for e in carrier.directions(cod[d]).elements:
                if unital and d in owner:
                    comp[d, e] = e
                elif unital and e == identity[cod[d]]:
                    comp[d, e] = d
                else:
                    comp[d, e] = rng.choice(dirs)
        if broken:
            comp[rng.choice(sorted(comp))] = rng.choice(dirs)
        for p in members:
            codomain[p], composite[p] = cod, comp
    return Comonoid._from_tables(carrier, identity, codomain, composite)


def _with_base_moved(c: Comonoid):
    """c with the base of one position moved to another position with the
    same direction set, or None when no two positions share one."""
    carrier = c.carrier
    for i, j in itertools.permutations(carrier.position_labels, 2):
        if carrier.directions(i) is carrier.directions(j):
            base = {**c.base, i: j}
            return Comonoid._from_tables(carrier, c.identity, c.codomain, c.composite, base)
    return None


def _lawless_factors(rng, count: int) -> list:
    """count comonoids from _shared_comonoid whose laws fail, every other
    one unital."""
    found = []
    while len(found) < count:
        unital = len(found) % 2 == 0
        c = _shared_comonoid(rng, unital, broken=False)
        if not _reference_check_comonoid_laws(c)["ok"]:
            found.append(c)
    return found


# ---------------------------------------------------------------------------
# The walks agree.


def test_check_category_matches_the_full_walk_on_random_tables():
    rng = random.Random(2401)
    seen = Counter()
    for _ in range(1500):
        k = _random_category(rng)
        seen[_kinds(_same_walk(check_category, _reference_check_category, k))] += 1
    # associativity failing alone is the case the skipping walk reports
    # from fewer triples
    assert seen[frozenset()] > 300
    assert seen[frozenset({"associativity"})] > 150
    assert sum(n for kinds, n in seen.items() if kinds & UNIT_LAWS) > 300


def test_check_category_matches_the_full_walk_on_order_three_tables_and_the_catalog():
    ok = Counter()
    for k in [*_order_three_tables(), *generate_categories(3, 5)]:
        ok[_same_walk(check_category, _reference_check_category, k)["ok"]] += 1
    # 11 of the order-three tables are monoids
    assert ok == {True: 11 + 395, False: 81 - 11}


def test_check_comonoid_laws_matches_the_full_walk_on_category_tables():
    rng = random.Random(2402)
    cats = [*_order_three_tables(), *(_random_category(rng) for _ in range(800))]
    seen = Counter()
    for k in cats:
        c = _comonoid_of(k)
        seen[_kinds(_same_walk(check_comonoid_laws, _reference_check_comonoid_laws, c))] += 1
    assert seen[frozenset()] > 150
    assert seen[frozenset({"coassociativity@"})] > 150
    assert sum(n for kinds, n in seen.items() if kinds & UNIT_LAWS) > 150


def test_check_comonoid_laws_matches_the_full_walk_on_shared_tables():
    # coassociativity fails at positions (the codomains disagree) and at
    # directions, with the counit laws holding or not, and with a base
    # moved off its position
    rng = random.Random(2403)
    seen = Counter()
    moved = 0
    for n in range(900):
        c = _shared_comonoid(rng, unital=n % 3 != 0, broken=n % 3 == 2)
        for x in (c, _with_base_moved(c)):
            if x is not None:
                moved += x is not c
                seen[_kinds(_same_walk(check_comonoid_laws, _reference_check_comonoid_laws, x))] += 1
    assert seen[frozenset()] > 100
    assert seen[frozenset({"coassociativity"})] > 100
    assert seen[frozenset({"coassociativity@"})] > 30
    assert sum(n for kinds, n in seen.items() if kinds & UNIT_LAWS) > 300
    assert moved > 300


def test_check_comonoid_laws_matches_the_full_walk_on_contractible_sums_and_tensors():
    for n in range(9):
        c = contractible(FinSet(tuple(f"s{i}" for i in range(n))))
        assert _same_walk(check_comonoid_laws, _reference_check_comonoid_laws, c)["ok"]
    rng = random.Random(2404)
    factors = _lawless_factors(rng, 16)
    two = contractible(FinSet(("u", "v")))
    for a, b in zip(factors[::2], factors[1::2]):
        for x in (comonoid_sum(a, b), comonoid_tensor(a, b), comonoid_sum(two, a), comonoid_tensor(b, two)):
            assert not _same_walk(check_comonoid_laws, _reference_check_comonoid_laws, x)["ok"]


# ---------------------------------------------------------------------------
# Equal tables listed in another order give equal results.


def _shuffled(rng, xs) -> list:
    xs = list(xs)
    rng.shuffle(xs)
    return xs


def _reordered_category(rng, k: FinCat) -> FinCat:
    """k with its objects, morphisms, identities and composites listed in
    another order: an equal category."""
    return FinCat(
        FinSet(tuple(_shuffled(rng, k.objects.elements))),
        _shuffled(rng, k.morphisms),
        dict(_shuffled(rng, k.identity.items())),
        dict(_shuffled(rng, k._compose.items())),
    )


def _reordered_comonoid(rng, c: Comonoid) -> Comonoid:
    """c with its carrier listing the positions and each direction set in
    another order, direction sets shared as in c: an equal comonoid."""
    copies = {}
    spec = []
    for i, dirs in _shuffled(rng, c.carrier._dirs.items()):
        if id(dirs) not in copies:
            copies[id(dirs)] = FinSet(tuple(_shuffled(rng, dirs.elements)))
        spec.append((i, copies[id(dirs)]))
    return Comonoid._from_tables(FinPoly(spec), c.identity, c.codomain, c.composite, c.base)


def _records(report) -> Counter:
    """A report's records as a multiset.  A coassociativity record at a
    position is kept without its labels, which list directions in the
    carrier's order."""
    records = Counter()
    for v in report["violations"]:
        if v["law"] == "coassociativity" and "direction" not in v:
            v = {"law": v["law"], "position": v["position"]}
        records[json.dumps(v, sort_keys=True)] += 1
    return records


def test_law_checks_and_round_trip_ignore_the_order_tables_are_listed_in():
    rng = random.Random(2405)
    seen = Counter()
    for _ in range(400):
        k = _random_category(rng)
        k2 = _reordered_category(rng, k)
        report, report2 = check_category(k), check_category(k2)
        assert report["ok"] == report2["ok"]
        assert _records(report) == _records(report2)
        seen[report["ok"]] += 1
        if report["ok"]:
            c, c2 = category_to_comonoid(k), category_to_comonoid(k2)
            assert c == c2
            assert comonoid_to_category(c) == comonoid_to_category(c2)
    assert min(seen.values()) > 120
    kinds = Counter()
    for n in range(400):
        c = _shared_comonoid(rng, unital=n % 3 != 0, broken=n % 3 == 2)
        for x in (c, _with_base_moved(c)):
            if x is not None:
                report = check_comonoid_laws(x)
                report2 = check_comonoid_laws(_reordered_comonoid(rng, x))
                assert report["ok"] == report2["ok"]
                assert _records(report) == _records(report2)
                kinds[_kinds(report)] += 1
    assert kinds[frozenset()] > 50
    assert kinds[frozenset({"coassociativity"})] > 50
    assert kinds[frozenset({"coassociativity@"})] > 10


def _catalog_sample(rng, count: int) -> list:
    """count categories of generate_categories(3, 6), drawn in catalog
    order, with at least one morphism besides the identities."""
    cats = [k for k in generate_categories(3, 6) if len(k.morphisms) > len(k.objects)]
    return [cats[i] for i in sorted(rng.sample(range(len(cats)), count))]


def test_isomorphism_verdicts_and_invariants_ignore_the_order_tables_are_listed_in():
    rng = random.Random(2406)
    sample = _catalog_sample(rng, 800)
    unequal = 0
    for k, other in zip(sample, sample[1:] + sample[:1]):
        k2 = _reordered_category(rng, k)
        assert cat_isomorphic(k, k2) and cat_isomorphic(k2, k)
        assert _invariants(k) == _invariants(k2)
        assert _canonical_labels(k)[0] == _canonical_labels(k2)[0]
        # catalog categories are pairwise non-isomorphic, in either order
        # and on fresh copies listed in another order
        other2 = _reordered_category(rng, other)
        assert not cat_isomorphic(k2, other2) and not cat_isomorphic(other2, k2)
        same_size = (len(k.objects), len(k.morphisms)) == (len(other.objects), len(other.morphisms))
        unequal += same_size
    # the False verdicts that are reached past the size test
    assert unequal > 700


# ---------------------------------------------------------------------------
# The conversions against the code that re-keyed the flat table.


def _reference_flat_category_to_comonoid(k: FinCat) -> Comonoid:
    """category_to_comonoid as it wrote the composites flat and built the
    carrier through make_poly."""
    if k._lawful is not True:
        report = check_category(k)
        if not report["ok"]:
            raise ValueError(f"category axioms fail: {report['violations'][0]!r}")
    objects = k.objects.elements
    comp, cod_of, out = k._compose, k.cod_of, k.out
    codomain = {o: {m: cod_of[m] for m in out[o]} for o in objects}
    composite = {
        o: {(m, m2): comp[(m2, m)] for m in out[o] for m2 in out[cod_of[m]]}
        for o in objects
    }
    base = {o: o for o in objects}
    carrier = make_poly((o, k.out[o]) for o in objects)
    return Comonoid._from_tables(carrier, dict(k.identity), codomain, composite, base)


def _reference_flat_comonoid_to_category(c: Comonoid) -> FinCat:
    """comonoid_to_category as it read the flat composites and had the
    FinCat build dom_of, cod_of and out."""
    if c._lawful is not True:
        report = check_comonoid_laws(c)
        if not report["ok"]:
            raise ValueError(f"comonoid laws fail: {report['violations'][0]!r}")
    carrier = c.carrier
    labels = carrier.position_labels
    dirs = carrier._dirs
    tags = {i: {d: tag_label(i, d) for d in dirs[i].elements} for i in labels}
    morphisms = []
    compose = {}
    for i in labels:
        here, cod, comp = tags[i], c.codomain[i], c.composite[i]
        for d in dirs[i].elements:
            j = cod[d]
            m = here[d]
            morphisms.append((m, i, j))
            there = tags[j]
            for e in dirs[j].elements:
                compose[(there[e], m)] = here[comp[(d, e)]]
    identity = {i: tags[i][c.identity[i]] for i in labels}
    return FinCat(carrier.positions_set(), morphisms, identity, compose)


def _listed(x):
    """x with every mapping written as its list of items, so that == also
    compares the order of keys."""
    if isinstance(x, Mapping):
        return [(key, _listed(v)) for key, v in x.items()]
    return x


def _same_comonoid(c: Comonoid, r: Comonoid) -> None:
    assert [(i, d.elements, d.label) for i, d in c.carrier._dirs.items()] == [
        (i, d.elements, d.label) for i, d in r.carrier._dirs.items()
    ]
    for name in ("identity", "codomain", "base", "composite"):
        assert _listed(getattr(c, name)) == _listed(getattr(r, name)), name


def _same_category(k: FinCat, r: FinCat) -> None:
    assert k.objects.elements == r.objects.elements
    for name in ("morphisms", "dom_of", "cod_of", "out", "identity", "_compose"):
        assert _listed(getattr(k, name)) == _listed(getattr(r, name)), name


def _renamed(rng, k: FinCat) -> FinCat:
    """k under fresh object and morphism names, listed in another order."""
    obj = dict(zip(k.objects.elements, _shuffled(rng, [f"x{i}" for i in range(len(k.objects))])))
    labels = k.morphism_labels()
    mor = dict(zip(labels, _shuffled(rng, [f"f{i}" for i in range(len(labels))])))
    renamed = FinCat(
        FinSet(tuple(obj[o] for o in k.objects.elements)),
        [(mor[m], obj[d], obj[c]) for m, d, c in k.morphisms],
        {obj[o]: mor[m] for o, m in k.identity.items()},
        {(mor[g], mor[f]): mor[h] for (g, f), h in k._compose.items()},
    )
    return _reordered_category(rng, renamed)


def _untyped_copy(c: Comonoid) -> Comonoid:
    """c's flat tables as a comonoid built from flat tables."""
    return Comonoid._from_tables(c.carrier, c.identity, c.codomain, c.composite, c.base)


def test_conversions_match_the_flat_reference_field_by_field():
    rng = random.Random(2407)
    for k in generate_categories(3, 5):
        for x in (k, _renamed(rng, k)):
            c = category_to_comonoid(x)
            # the walk on the rows (typed) reports as the walk on the flat
            # tables does
            assert check_comonoid_laws(c) == check_comonoid_laws(_untyped_copy(c))
            back = comonoid_to_category(c)
            r = _reference_flat_category_to_comonoid(x)
            _same_comonoid(c, r)
            assert c == r and hash(c) == hash(r)
            assert c.composite is c.composite
            _same_category(back, _reference_flat_comonoid_to_category(r))


def test_typed_and_flat_walks_report_alike_on_random_tables():
    # lawless tables reach the typed walk only through the verdict kept
    # on the category, which category_to_comonoid trusts
    rng = random.Random(2408)
    kinds = Counter()
    for _ in range(600):
        k = _random_category(rng)
        k._lawful = True
        c = category_to_comonoid(k)
        report = check_comonoid_laws(c)
        assert report == check_comonoid_laws(_untyped_copy(c))
        kinds[_kinds(report)] += 1
    assert kinds[frozenset()] > 100
    assert kinds[frozenset({"coassociativity@"})] > 100
    assert sum(n for found, n in kinds.items() if found & UNIT_LAWS) > 100


def test_round_trip_shares_one_core_and_builds_no_label_table_unread(monkeypatch):
    built = []
    core = comonoid._Core

    def counted(*args):
        built.append(args)
        return core(*args)

    monkeypatch.setattr(comonoid, "_Core", counted)
    for k in generate_categories(2, 4):
        k1 = _renamed(random.Random(len(k.morphisms)), k)
        built.clear()
        assert check_category(k1)["ok"]
        c = category_to_comonoid(k1)
        assert check_comonoid_laws(c)["ok"]
        k2 = comonoid_to_category(c)
        assert cat_isomorphic(k, k2)
        # one core, built with k1 and shared by all three: the round trip
        # builds none
        assert built == []
        assert c._core is k1._core and k2._core is k1._core
        # no label table of c or k2 exists until it is read, and k2 keeps
        # none: its tables are views over the core
        for slot in ("_carrier", "_identity", "_base", "_codomain", "_composite"):
            assert getattr(c, slot) is None, slot
        for slot in ("_morphisms", "_labels", "_by_label"):
            assert getattr(k2, slot) is None, slot
        # each is derived on its first read, in the order the conversions
        # through labels give; c's are kept, k2's read afresh each time
        flat = c.composite
        assert c.composite is flat
        assert _listed(flat) == _listed(_reference_flat_category_to_comonoid(k1).composite)
        back = k2._compose
        assert k2._compose is not back and not isinstance(back, MutableMapping)
        _same_category(k2, _reference_flat_comonoid_to_category(_reference_flat_category_to_comonoid(k1)))


def test_a_category_is_stored_once_and_its_comonoid_refers_to_it():
    # FinCat(...) used to keep the five label tables it was checked with
    # beside its core, and the comonoid a category reads as held copies of
    # the category's core, objects and labels; later a category kept each
    # label table once it was read
    rng = random.Random(3001)
    tables = ("dom_of", "cod_of", "out", "identity", "_compose")
    for k in generate_categories(2, 4):
        objects = FinSet(tuple(_shuffled(rng, k.objects.elements)))
        morphisms = _shuffled(rng, k.morphisms)
        identity = dict(_shuffled(rng, k.identity.items()))
        compose = dict(_shuffled(rng, k._compose.items()))
        k1 = FinCat(objects, morphisms, identity, compose)
        c = category_to_comonoid(k1)
        assert c._category is k1
        assert check_comonoid_laws(c)["ok"]
        comonoid_to_category(c)
        # no table is stored: each read is a new read-only view
        for name in tables:
            table = getattr(k1, name)
            assert getattr(k1, name) is not table and not isinstance(table, MutableMapping), name
        # each table is what the constructor was given, in the order it
        # was given: morphisms as listed, objects in object order; the
        # composition table only as a mapping
        assert k1.morphisms == tuple(morphisms)
        assert _listed(k1.dom_of) == [(m, d) for m, d, _ in morphisms]
        assert _listed(k1.cod_of) == [(m, x) for m, _, x in morphisms]
        assert _listed(k1.out) == [
            (o, tuple(m for m, d, _ in morphisms if d == o)) for o in objects.elements
        ]
        assert _listed(k1.identity) == [(o, identity[o]) for o in objects.elements]
        assert k1._compose == compose
