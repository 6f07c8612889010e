import hashlib
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from cslinks import algebra
from cslinks.algebra import (ClassVector, LabelledDiagram, Reduction, _faces,
                             beta, beta_coefficient, check_ihx_prime,
                             check_stu_prime, dim_A_n,
                             dim_chords_mod_4t, exp_action, four_t_relators,
                             ihx_relators, insert,
                             lattice_generators, line_unit, product,
                             quotient_A_n_k, reduce_to_basis, reduction,
                             stu_relators, representative)
from cslinks.curves import catalog
from cslinks.diagrams import (THETA, Diagram, OrientedDiagram,
                              canonical_oriented, enumerate_diagrams,
                              is_principal, is_subprincipal, std_oriented,
                              tripod)
from cslinks.errors import DiagramError
from cslinks.invariants import z_series
from cslinks.support import R1, S1, circles

# sha256 of (order, sorted pivots, basis) of reduction(support, n, k), k "-"
# for None, for S1 and R1 at n <= 3, S1 ⊔ S1 at n <= 2 and S1 at n = 4
ECHELON_DIGESTS = """
S1 0 - cb767c6b04c23d8308fb9eeb40dea0334d3ddc6addba9a77faf0c619dcc18379
S1 0 0 cb767c6b04c23d8308fb9eeb40dea0334d3ddc6addba9a77faf0c619dcc18379
S1 1 - f947dfea0acfb4d0508a789f1c77931dab150bb7b3f219274a713e4904b193b1
S1 1 0 f947dfea0acfb4d0508a789f1c77931dab150bb7b3f219274a713e4904b193b1
S1 1 1 f947dfea0acfb4d0508a789f1c77931dab150bb7b3f219274a713e4904b193b1
S1 1 2 f947dfea0acfb4d0508a789f1c77931dab150bb7b3f219274a713e4904b193b1
S1 2 - 90a27400a749208cb68cd09367fd4b7deb01abfaaab0e64c9f3de7adf39dab55
S1 2 0 90a27400a749208cb68cd09367fd4b7deb01abfaaab0e64c9f3de7adf39dab55
S1 2 1 90a27400a749208cb68cd09367fd4b7deb01abfaaab0e64c9f3de7adf39dab55
S1 2 2 90a27400a749208cb68cd09367fd4b7deb01abfaaab0e64c9f3de7adf39dab55
S1 2 3 90a27400a749208cb68cd09367fd4b7deb01abfaaab0e64c9f3de7adf39dab55
S1 2 4 406f322c769baf2f5393d3ea9ad3358a3811667d1b6ecb543caacf0c01e8c3e9
S1 3 - 901224ea10294d0d1b72ac6466e2d74bece9d6178c8997065377147581cfaf74
S1 3 0 901224ea10294d0d1b72ac6466e2d74bece9d6178c8997065377147581cfaf74
S1 3 1 901224ea10294d0d1b72ac6466e2d74bece9d6178c8997065377147581cfaf74
S1 3 2 901224ea10294d0d1b72ac6466e2d74bece9d6178c8997065377147581cfaf74
S1 3 3 901224ea10294d0d1b72ac6466e2d74bece9d6178c8997065377147581cfaf74
S1 3 4 fed595a9f41b004751edfb26e2b97e89cd4e2205b383d5c883e2be6985f10d1a
S1 3 5 fed595a9f41b004751edfb26e2b97e89cd4e2205b383d5c883e2be6985f10d1a
S1 3 6 0bafdb26bf6675bcc06751b164281921098e5ea3d6da8b3d40302277f339a014
S1 4 3 049564123d3461a474fa98787d5d7bffc5986e647e437d87e006aea21181b235
S1 4 4 bb2fe3daae7789b507f33e88151d614c1b22643f6fc4260d5e670aaf0d1e4875
S1 4 5 69887a77cbfc2792de5e4e907bd71451a870299adefb6cd64af16dfafc4228d0
S1 4 6 581211854d5a034beae0ae2a876b7778ddf05e8e3e255758e4548d6f126c55bd
S1 4 7 e2939adfb461a4b04e52199b42e634a96fb75c5682c50db1e6a9f51728892eba
S1 4 8 29a60f6b63d1227f9fb844b689dd293bb472988fde34cd2614dae87edf51dafa
R1 0 - ecbe760cc92e0922505f47a93cb76088048fdfabd5c1dae6e06e8b7ff07c8c51
R1 0 0 ecbe760cc92e0922505f47a93cb76088048fdfabd5c1dae6e06e8b7ff07c8c51
R1 1 - 6a504b23a7d90fe7de84d299d13250533f44ccbad9eb06f6114cc07b034e59a8
R1 1 0 6a504b23a7d90fe7de84d299d13250533f44ccbad9eb06f6114cc07b034e59a8
R1 1 1 6a504b23a7d90fe7de84d299d13250533f44ccbad9eb06f6114cc07b034e59a8
R1 1 2 6a504b23a7d90fe7de84d299d13250533f44ccbad9eb06f6114cc07b034e59a8
R1 2 - bbf590df7d10788349b0c1f405706e6770dbb0749e6bfe5f1d7329bbac9142a4
R1 2 0 bbf590df7d10788349b0c1f405706e6770dbb0749e6bfe5f1d7329bbac9142a4
R1 2 1 bbf590df7d10788349b0c1f405706e6770dbb0749e6bfe5f1d7329bbac9142a4
R1 2 2 bbf590df7d10788349b0c1f405706e6770dbb0749e6bfe5f1d7329bbac9142a4
R1 2 3 bbf590df7d10788349b0c1f405706e6770dbb0749e6bfe5f1d7329bbac9142a4
R1 2 4 24a0a8a04a5e08736ac0f7d4252082a80ad4a2ba1f206727687379250ad176bb
R1 3 - f925a9fb1df95989ff6986826383f2a95134ff924a97f79e6cea4810ea871dd2
R1 3 0 f925a9fb1df95989ff6986826383f2a95134ff924a97f79e6cea4810ea871dd2
R1 3 1 f925a9fb1df95989ff6986826383f2a95134ff924a97f79e6cea4810ea871dd2
R1 3 2 f925a9fb1df95989ff6986826383f2a95134ff924a97f79e6cea4810ea871dd2
R1 3 3 f925a9fb1df95989ff6986826383f2a95134ff924a97f79e6cea4810ea871dd2
R1 3 4 262ee274e8d19b5d7eaa2089185936735054e53d324295827bb214032f78f614
R1 3 5 262ee274e8d19b5d7eaa2089185936735054e53d324295827bb214032f78f614
R1 3 6 fdfc310072a40189ab3c0b64f135da335f697d8593eee704c0a0c2685aa05c89
S1S1 0 - ee8d2b74bfebb6901fcd92029b7fded9d527fe18b304608808f2a048f7182d65
S1S1 0 0 ee8d2b74bfebb6901fcd92029b7fded9d527fe18b304608808f2a048f7182d65
S1S1 1 - 8d91c48503979a022f0062b6c80049fed2017b11e98574ff2559a10f2997b0fe
S1S1 1 0 8d91c48503979a022f0062b6c80049fed2017b11e98574ff2559a10f2997b0fe
S1S1 1 1 8d91c48503979a022f0062b6c80049fed2017b11e98574ff2559a10f2997b0fe
S1S1 1 2 8d91c48503979a022f0062b6c80049fed2017b11e98574ff2559a10f2997b0fe
S1S1 2 - b3710527a054707bba859d28f537214d194c896a95d99491430d67c6b2c51362
S1S1 2 0 b3710527a054707bba859d28f537214d194c896a95d99491430d67c6b2c51362
S1S1 2 1 b3710527a054707bba859d28f537214d194c896a95d99491430d67c6b2c51362
S1S1 2 2 b3710527a054707bba859d28f537214d194c896a95d99491430d67c6b2c51362
S1S1 2 3 b3710527a054707bba859d28f537214d194c896a95d99491430d67c6b2c51362
S1S1 2 4 373a9a11fedd559212ef41eac1c27516b39fea75a47eb023979f321340ac64d5
"""


def fs(*pairs):
    return frozenset(frozenset(p) for p in pairs)


def theta_line():
    return std_oriented(Diagram(R1, ((0, 1),), frozenset(), fs((0, 1))))


def line_H(pattern):
    edges = {frozenset((4, 5))}
    for i, who in enumerate(pattern):
        edges.add(frozenset((i, 4 if who == "A" else 5)))
    return std_oriented(Diagram(R1, ((0, 1, 2, 3),), frozenset({4, 5}),
                                frozenset(edges)))


class TestRelations:
    def test_degree1_no_relations(self):
        assert stu_relators(S1, 1) + ihx_relators(S1, 1) == []

    def test_degree2_stu_expresses_tripod(self):
        rels = stu_relators(S1, 2)
        assert len(rels) == 3  # one per leg of the tripod
        key_y, _ = canonical_oriented(std_oriented(tripod()))
        for r in rels:
            assert key_y in r.terms

    @pytest.mark.parametrize("n", [2, 3])
    def test_relators_reduce_to_zero(self, n):
        red = reduction(S1, n)
        for r in stu_relators(S1, n) + ihx_relators(S1, n):
            assert red.reduce(r).is_zero()

    def test_ihx_consequence_of_stu(self):
        # the quotient built from STU alone kills every IHX relator
        red = reduction(S1, 3)
        rels = ihx_relators(S1, 3)
        assert rels
        for r in rels:
            assert red.reduce(r).is_zero()

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_ihx_rows_add_no_pivot(self, n, monkeypatch):
        # eliminating the IHX relators as well leaves every quotient as is
        ks = [None] + list(range(2 * n + 1))

        def quotients(base):
            return [base if k is None else base.quotient(k) for k in ks]

        stu_only = quotients(Reduction(S1, n))
        stu = algebra.stu_relators
        monkeypatch.setattr(algebra, "stu_relators",
                            lambda s, m: stu(s, m) + ihx_relators(s, m))
        for both, red in zip(quotients(Reduction(S1, n)), stu_only):
            assert (both.order, both.pivots, both.basis) == (
                red.order, red.pivots, red.basis)

    def test_four_t_consequence_of_stu(self):
        red = reduction(S1, 3)
        rels = four_t_relators(S1, 3)
        assert rels
        for r in rels:
            assert red.reduce(r).is_zero()


class TestReduction:
    def test_theta_is_basis(self):
        red = reduction(S1, 1)
        assert red.dimension == 1
        v = red.reduce(ClassVector.of(std_oriented(THETA)))
        assert list(v.terms.values()) == [Fraction(1)]

    def test_dimensions_match_4t_oracle(self):
        for n in (1, 2, 3):
            assert dim_A_n(S1, n) == dim_chords_mod_4t(S1, n)
        assert [dim_A_n(S1, n) for n in (1, 2, 3)] == [1, 2, 3]

    def test_tripod_expansion(self):
        red = reduction(S1, 2)
        v = red.reduce(ClassVector.of(std_oriented(tripod())))
        assert sorted(v.terms.values()) == [Fraction(-1), Fraction(1)]

    def test_idempotent(self):
        red = reduction(S1, 2)
        v = red.reduce(ClassVector.of(std_oriented(tripod())))
        assert red.reduce(v) == v

    def test_as_flip_negates(self):
        od = std_oriented(tripod())
        t = next(iter(od.diagram.trivalent))
        v1 = ClassVector.of(od)
        v2 = ClassVector.of(od.flip_vertex(t))
        assert (v1 + v2).is_zero()


class TestQuotients:
    def test_k2_k3_preserve_dimensions_above_degree1(self):
        for n in (2, 3):
            base = dim_A_n(S1, n)
            assert dim_A_n(S1, n, 2) == base
            assert dim_A_n(S1, n, 3) == base

    def test_degree1_k2(self):
        assert dim_A_n(S1, 1, 2) == 1

    def test_k_bound(self):
        theta = ClassVector.of(std_oriented(THETA))
        for k, message in ((3, "k must be at most 2n"),
                           (-1, "k must be nonnegative")):
            with pytest.raises(DiagramError, match=message):
                quotient_A_n_k(theta, k)

    def test_quotient_identity_on_vector(self):
        v = ClassVector.of(std_oriented(tripod()))
        assert quotient_A_n_k(v, 2) == reduce_to_basis(v)

    @pytest.mark.parametrize("name, n, k, digest", [
        line.split() for line in ECHELON_DIGESTS.strip().splitlines()])
    def test_echelon_pinned(self, name, n, k, digest):
        # the echelons of the construction that eliminated every STU
        # relator anew for each k, pinned bit for bit
        support = {"S1": S1, "R1": R1, "S1S1": circles(2)}[name]
        red = reduction(support, int(n), None if k == "-" else int(k))
        pivots = sorted((lead, sorted(row.items()))
                        for lead, row in red.pivots.items())
        assert hashlib.sha256(repr((red.order, pivots, red.basis)).encode()
                              ).hexdigest() == digest

    def test_one_stu_echelon_per_degree(self, monkeypatch):
        calls = []
        stu = algebra.stu_relators
        monkeypatch.setattr(algebra, "stu_relators",
                            lambda s, m: calls.append((s, m)) or stu(s, m))
        reduction.cache_clear()
        try:
            reds = [reduction(S1, 3, k) for k in (None, 0, 2, 4, 6)]
            assert reduction(S1, 3) is reduction(S1, 3, None) is reds[0]
            assert calls == [(S1, 3)]
            assert all(red.order is reds[0].order for red in reds)
        finally:
            reduction.cache_clear()


def chained_reduce(red, vec):
    """red.reduce by substituting the pivot rows from the top of the order
    down, each one's tail in turn (oracle)."""
    out = dict(vec.terms)
    for lead in red.order:
        if lead in out and lead in red.pivots:
            algebra._eliminate(out, lead, red.pivots[lead])
    return ClassVector(red.support, red.n, out)


def order_scanning_insert(self, row):
    """Reduction._insert with each lead found by a scan of the order
    (oracle)."""
    row = dict(row)
    while row:
        lead = next(key for key in self.order if key in row)
        if lead in self.pivots:
            algebra._eliminate(row, lead, self.pivots[lead])
        else:
            c = row.pop(lead)
            self.pivots[lead] = {key: v / c for key, v in row.items()}
            return


SUPPORTS = {"S1": S1, "R1": R1, "S1S1": circles(2)}
ECHELON_CASES = ([("S1", n) for n in range(5)] + [("R1", n) for n in range(5)]
                 + [("S1S1", n) for n in range(4)])
# every k of every case, but R1 at n = 4 (314 classes, 4 002 vectors) only
# A_4 and the quotient with the most unit rows
REDUCE_CASES = [(name, n, k) for name, n in ECHELON_CASES
                for k in ((None, 2 * n) if (name, n) == ("R1", 4)
                          else (None, *range(2 * n + 1)))]


@lru_cache(maxsize=None)
def reduce_inputs(name, n):
    """Every STU relator, every IHX' and STU' face vector and every class
    unit of (support, n)."""
    support = SUPPORTS[name]
    vecs = stu_relators(support, n)
    for d in enumerate_diagrams(support, n):
        vecs.append(ClassVector.of(std_oriented(d)))
        for kind in ("ihx", "stu"):
            for a, b in _faces(d)[kind]:
                vecs += [a, b]
    return vecs


class TestRankedEchelon:
    @pytest.mark.parametrize("name, n", ECHELON_CASES)
    def test_pivots_match_order_scan(self, name, n, monkeypatch):
        # the same order, basis and pivot rows, items in the same order,
        # for A_n and every quotient
        support = SUPPORTS[name]
        ks = (None, *range(2 * n + 1))
        ranked = [reduction(support, n, k) for k in ks]
        monkeypatch.setattr(Reduction, "_insert", order_scanning_insert)
        scanned = Reduction(support, n)
        for red, k in zip(ranked, ks):
            ref = scanned if k is None else scanned.quotient(k)
            assert (red.order, red.basis) == (ref.order, ref.basis)
            assert [(lead, list(row.items()))
                    for lead, row in red.pivots.items()] == [
                (lead, list(row.items())) for lead, row in ref.pivots.items()]

    @pytest.mark.parametrize("name, n, k", REDUCE_CASES)
    def test_reduce_matches_chained_substitution(self, name, n, k):
        red = reduction(SUPPORTS[name], n, k)
        vecs = reduce_inputs(name, n)
        assert vecs
        for vec in vecs:
            assert red.reduce(vec) == chained_reduce(red, vec)

    def test_float_vector_moves_by_rounding_only(self):
        # Monte Carlo floats pass through reduce in z0_series.  At degree 2
        # every pivot tail is already in the basis, so the values keep
        # their bits; at degree 3 the expansions group the products
        # differently from the chained substitution
        _, _, estimates = z_series(catalog("trefoil"), 3, samples=2000)
        for n in (2, 3):
            vec = ClassVector(S1, n, {key: est.value
                                      for key, est in estimates[n].items()})
            scale = max(abs(c) for c in vec.terms.values())
            for k in (None, *range(2 * n + 1)):
                red = reduction(S1, n, k)
                got = red.reduce(vec).terms
                want = chained_reduce(red, vec).terms
                assert got.keys() == want.keys()
                if n == 2:
                    assert got == want
                for key, c in got.items():
                    assert abs(c - want[key]) <= 4 * np.finfo(float).eps * scale


class TestProductInsert:
    def test_unit(self):
        th = ClassVector.of(theta_line())
        assert product(line_unit(), th) == th

    def test_theta_squared(self):
        th = ClassVector.of(theta_line())
        sq = product(th, th)
        assert len(sq.terms) == 1 and sq.degree == 2

    @pytest.mark.parametrize("n2", [1, 2])
    def test_commutative_mod_relations(self, n2):
        th = ClassVector.of(theta_line())
        red = reduction(R1, 1 + n2)
        for d in enumerate_diagrams(R1, n2):
            v = ClassVector.of(std_oriented(d))
            assert red.reduce(product(th, v) - product(v, th)).is_zero()

    def test_insert_unit(self):
        v = ClassVector.of(std_oriented(THETA))
        assert insert(line_unit(), v, 0) == v

    def test_insert_theta_gives_square(self):
        th = ClassVector.of(theta_line())
        v = insert(th, ClassVector.of(std_oriented(THETA)), 0)
        red = reduction(S1, 2)
        out = red.reduce(v)
        # the parallel-chords class, i.e. [theta]^2
        assert list(out.terms.values()) == [Fraction(1)]

    def test_insert_place_independent(self):
        from cslinks.algebra import _insert_once
        th = ClassVector.of(theta_line())
        base = ClassVector.of(std_oriented(THETA))
        red = reduction(S1, 2)
        v0 = insert(th, base, 0)
        v1 = ClassVector.zero(S1, 2)
        for k2, c2 in base.terms.items():
            for k1, c1 in th.terms.items():
                v1 = v1 + ClassVector.of(
                    _insert_once(representative(k1), representative(k2), 0,
                                 slot=1), c1 * c2)
        assert red.reduce(v0 - v1).is_zero()


class TestExpAction:
    def test_zero_scalar(self):
        alpha1 = ClassVector.of(theta_line()).scale(Fraction(1, 2))
        v = ClassVector.of(std_oriented(enumerate_diagrams(S1, 0)[0]))
        out = exp_action(alpha1, Fraction(0), v, 0, 2)
        assert out.vector(1).is_zero() and out.vector(2).is_zero()

    def test_series_terms(self):
        alpha1 = ClassVector.of(theta_line()).scale(Fraction(1, 2))
        v = ClassVector.of(std_oriented(enumerate_diagrams(S1, 0)[0]))
        x = Fraction(3)
        out = exp_action(alpha1, x, v, 0, 2)
        red1, red2 = reduction(S1, 1), reduction(S1, 2)
        assert list(red1.reduce(out.vector(1)).terms.values()) == [Fraction(3, 2)]
        assert list(red2.reduce(out.vector(2)).terms.values()) == [Fraction(9, 8)]


class TestBeta:
    def test_theta_half(self):
        ld = LabelledDiagram(std_oriented(THETA), 1, 2)
        assert beta(ld).coefficient == Fraction(1, 2)

    def test_crossed_chords_one_24th(self):
        cr = next(d for d in enumerate_diagrams(S1, 2)
                  if not d.trivalent and len(d.edges) == 2
                  and _crossed(d))
        ld = LabelledDiagram(std_oriented(cr), 2, 3)
        assert beta(ld).coefficient == Fraction(1, 24)

    def test_full_label_case(self):
        # e = N forces the coefficient 1/(N! 2^N)
        from math import factorial
        for n, k in ((1, 2), (2, 3)):
            N = 3 * n - k
            assert beta_coefficient(n, k, N) == Fraction(
                1, factorial(N) * 2 ** N)

    def test_too_many_edges_rejected(self):
        with pytest.raises(DiagramError):
            beta_coefficient(2, 4, 3)   # N = 2 < 3 edges

    def test_labelled_diagram_validation(self):
        for k, message in ((4, "k must be at most 2n"),
                           (-1, "k must be nonnegative")):
            with pytest.raises(DiagramError, match=message):
                LabelledDiagram(std_oriented(THETA), 1, k)


def _crossed(d):
    comp = d.placements[0]
    for e in d.edges:
        a, b = sorted(comp.index(v) for v in e)
        if (b - a) % 2 == 1 and len(comp) == 4:
            return True
    return False


@pytest.fixture
def fresh_faces():
    """An empty gluing-face memo, emptied again afterwards, so that faces
    built under a mutation never reach another test."""
    algebra._faces.cache_clear()
    yield
    algebra._faces.cache_clear()


GLUING_CASES = [(n, k) for n in (1, 2, 3) for k in range(2, 2 * n + 1)]


class TestGluings:
    @pytest.mark.parametrize("n,k", GLUING_CASES)
    def test_ihx_prime(self, n, k):
        assert check_ihx_prime(S1, n, k)

    @pytest.mark.parametrize("n,k", GLUING_CASES)
    def test_stu_prime(self, n, k):
        assert check_stu_prime(S1, n, k)

    def test_perturbed_beta_fails(self, monkeypatch, fresh_faces):
        ihx = algebra.ihx_replacements
        monkeypatch.setattr(algebra, "ihx_replacements",
                            lambda od, e: ihx(od, e)[::-1])
        assert not check_ihx_prime(S1, 3, 3)
        monkeypatch.undo()
        algebra._faces.cache_clear()
        monkeypatch.setattr(algebra, "beta_coefficient",
                            lambda n, k, e_count: Fraction(1))
        assert not check_stu_prime(S1, 2, 3)

    def test_flipped_contraction_fails(self, monkeypatch, fresh_faces):
        contract = algebra._contract_pair

        def flipped(od, ci, p, q):
            t_od = contract(od, ci, p, q)
            if t_od is None:
                return None
            # the new trivalent vertex has the highest id of the diagram
            t_new = max(t_od.diagram.trivalent)
            to = tuple((v, (c[0], c[2], c[1]) if v == t_new else c)
                       for v, c in t_od.triv_orient)
            return OrientedDiagram(t_od.diagram, to, t_od.univ_orient)

        monkeypatch.setattr(algebra, "_contract_pair", flipped)
        failing = {(n, k) for n, k in GLUING_CASES
                   if not check_stu_prime(S1, n, k)}
        assert failing == {(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (3, 5)}

    def test_doubled_full_label_beta_fails(self, monkeypatch):
        # beta is applied per k, outside the face memo: no clearing needed
        coefficient = algebra.beta_coefficient
        monkeypatch.setattr(
            algebra, "beta_coefficient", lambda n, k, e_count:
            coefficient(n, k, e_count) * (2 if e_count == 3 * n - k else 1))
        failing = {(n, k) for n, k in GLUING_CASES
                   if not check_stu_prime(S1, n, k)}
        assert failing == {(2, 3), (3, 3), (3, 5)}

    def test_faces_built_once_per_class(self, monkeypatch, fresh_faces):
        built = Counter()
        instances, contract = algebra._ihx_instances, algebra._contract_pair

        def counted_instances(d):
            built[d] += 1
            return instances(d)

        def counted_contract(od, ci, p, q):
            built[od.diagram, ci, p, q] += 1
            return contract(od, ci, p, q)

        monkeypatch.setattr(algebra, "_ihx_instances", counted_instances)
        monkeypatch.setattr(algebra, "_contract_pair", counted_contract)
        for k in range(7):
            assert check_ihx_prime(S1, 3, k) and check_stu_prime(S1, 3, k)
        # a class that is not subprincipal has only degenerate faces
        classes = {d for d in enumerate_diagrams(S1, 3) if is_subprincipal(d)}
        assert classes == {key for key in built if isinstance(key, Diagram)}
        assert set(built.values()) == {1}


class TestLattice:
    def test_degree1_generator(self):
        gens = lattice_generators(S1, 1, 2)
        assert len(gens) == 1
        assert gens[0].coefficient == Fraction(1, 2)
        assert list(gens[0].vector.terms.values()) == [Fraction(1, 2)]

    def test_degree2_k3_includes_cr_over_24(self):
        gens = lattice_generators(S1, 2, 3)
        assert Fraction(1, 24) in {g.coefficient for g in gens}

    def test_non_principal_excluded_degree3(self):
        gens = lattice_generators(S1, 3, 2)
        count_principal = sum(1 for d in enumerate_diagrams(S1, 3)
                              if is_principal(d) and len(d.univalent) >= 2)
        assert len(gens) == count_principal


class TestAnomalyClasses:
    def test_abab_class_vanishes(self):
        red = reduction(R1, 3)
        assert red.reduce(ClassVector.of(line_H("ABAB"))).is_zero()

    def test_abba_is_minus_aabb(self):
        red = reduction(R1, 3)
        a1 = red.reduce(ClassVector.of(line_H("AABB")))
        a3 = red.reduce(ClassVector.of(line_H("ABBA")))
        assert (a1 + a3).is_zero() and not a1.is_zero()

    def test_wheel_class_equals_aabb(self):
        red = reduction(R1, 3)
        w3 = std_oriented(Diagram(
            R1, ((0, 1, 2),), frozenset({3, 4, 5}),
            fs((0, 3), (1, 4), (2, 5), (3, 4), (4, 5), (3, 5))))
        a1 = red.reduce(ClassVector.of(line_H("AABB")))
        assert red.reduce(ClassVector.of(w3)) == a1
