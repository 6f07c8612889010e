import numpy as np
import pytest
from test_integrate import curve_named

from cslinks import integrate
from cslinks.curves import CATALOG_NAMES, LinkCurve, catalog
from cslinks.diagrams import THETA, Diagram, canonical_oriented, std_oriented
from cslinks.errors import ConvergenceError, DiagramError
from cslinks.integrate import chord_quadrature, z_n
from cslinks.invariants import (alpha_exact, lattice_check, linking_number,
                                self_linking, v2, z0_series,
                                z_roundtrip_residual)
from cslinks.projection import writhe_oracle
from cslinks.support import circles


class TestLinking:
    def test_hopf(self):
        res = linking_number(catalog("hopf-link"), 0, 1)
        assert res["integer"] == 1 and res["oracle"] == 1
        assert res["residual"] < 0.05

    def test_unlink(self):
        res = linking_number(catalog("unlink-2"), 0, 1)
        assert res["integer"] == 0 and res["oracle"] == 0

    def test_reversed_hopf(self):
        c = catalog("hopf-link")
        const, cos, sin = c.components[1]
        rev = LinkCurve([c.components[0], (const, cos, -np.asarray(sin))])
        res = linking_number(rev, 0, 1)
        assert res["integer"] == -1 and res["oracle"] == -1

    def test_same_component_rejected(self):
        with pytest.raises(DiagramError):
            linking_number(catalog("hopf-link"), 0, 0)


class TestSelfLinking:
    def test_planar_zero_exact(self):
        est = self_linking(catalog("unknot-round"))
        assert est.value == 0.0

    def test_kinked_unknot_matches_writhe(self):
        c = catalog("unknot-planar-perturbed")
        est = self_linking(c)
        assert abs(est.value - writhe_oracle(c)) < 0.1

    @pytest.mark.parametrize("name, m", [
        (name, m) for name in ("hopf-link", "unlink-2", "circle+trefoil")
        for m in (0, 1)])
    def test_chord_on_own_component(self, name, m):
        # the chord on component m of the link itself, bit for bit the
        # theta of that component copied out as a knot
        curve = curve_named(name)
        est = self_linking(curve, m)
        knot = LinkCurve([curve.components[m]])
        assert est == chord_quadrature(std_oriented(THETA), knot)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_z_n_theta_is_self_linking(self, name):
        # what lets one command share the estimate: z_n's degree-1 θ class
        # of each component, computed on its own, is self_linking's, bit
        # for bit
        curve = catalog(name)
        _, _, estimates = z_n(curve, 1)
        for m in range(curve.n_components):
            est = self_linking(curve, m)
            placements = tuple((0, 1) if i == m else ()
                               for i in range(curve.n_components))
            key, _ = canonical_oriented(std_oriented(Diagram(
                circles(curve.n_components), placements, frozenset(),
                frozenset({frozenset((0, 1))}))))
            assert estimates[key] == est

    @pytest.mark.parametrize("name, command", [
        ("trefoil", lambda c: z0_series(c, 1, samples=10 ** 3)),
        ("hopf-link", lambda c: z0_series(c, 1, samples=10 ** 3)),
        ("trefoil-framed", lambda c: lattice_check(c, 1, 2, samples=10 ** 3))],
        ids=["z0-trefoil", "z0-hopf-link", "lattice-trefoil-framed"])
    def test_theta_once_per_command(self, monkeypatch, name, command):
        # the command's kernel passes are those of z_n at degree 1 alone:
        # the framings and Z's θ classes share their estimates
        calls = []
        rows = integrate._kernel_rows

        def counted(curve, m1, m2, n):
            calls.append((m1, m2, n))
            return rows(curve, m1, m2, n)

        monkeypatch.setattr(integrate, "_kernel_rows", counted)
        command(catalog(name))
        passes = sorted(calls)
        calls.clear()
        z_n(catalog(name), 1)
        assert passes == sorted(calls)
        assert len(set(passes)) == len(passes)

    def test_continuity_under_perturbation(self):
        base = catalog("unknot-planar-perturbed")
        const, cos, sin = base.components[0]
        sin2 = np.array(sin, dtype=float)
        sin2[1, 2] *= 1.02
        nearby = LinkCurve([(const, cos, sin2)])
        a = self_linking(base)
        b = self_linking(nearby)
        assert abs(a.value - b.value) < 0.05


class TestV2:
    def test_unknot_zero(self):
        res = v2(catalog("unknot-round"), samples=2 * 10 ** 5, seed=0)
        assert abs(res["value"]) < 0.02
        assert res["integer"] == 0

    def test_knot_required(self):
        with pytest.raises(DiagramError):
            v2(catalog("hopf-link"))

    @pytest.mark.parametrize("seed", [11, 31])
    def test_trefoil_error_bar_covers_tripod_tail(self, seed):
        # with the chord classes exact, v2's error is the tripod's alone;
        # at these seeds its 16 shard means spread too little (v2 1.017 +-
        # 0.005 from them), and the weights' own variance must cover it
        res = v2(catalog("trefoil"), samples=4 * 10 ** 5, seed=seed)
        assert res["integer"] == 1 and res["warning"] is None


class TestZ0:
    def test_alpha_exact(self):
        a = alpha_exact()
        assert a.degree == 1 and list(a.terms.values())[0] == 0.5

    def test_round_unknot_degree1_vanishes(self):
        series, info = z0_series(catalog("unknot-round"), 1,
                                 samples=10 ** 4, seed=0)
        assert series.vector(1).is_zero()

    def test_hopf_link_two_cross_chords(self):
        # Z0 is group-like, so the class of two chords that both join
        # components 0 and 1 carries lk^2/2 = 1/2
        d = Diagram(circles(2), ((0, 1), (2, 3)), frozenset(),
                    frozenset({frozenset((0, 2)), frozenset((1, 3))}))
        key, sign = canonical_oriented(std_oriented(d))
        series, info = z0_series(catalog("hopf-link"), 2, samples=10 ** 5,
                                 seed=1)
        coeff = sign * series.vector(2).terms[key]
        assert abs(coeff - 0.5) <= 3 * info["z_errors"][2][key]

    def test_roundtrip(self):
        res = z0_series(catalog("unknot-planar-perturbed"), 2,
                        samples=10 ** 5, seed=1)
        assert z_roundtrip_residual(res, None) < 1e-9


class TestLattice:
    def test_unknot_degree1(self):
        res = lattice_check(catalog("unknot-round"), 1, 2, samples=10 ** 4,
                            seed=0)
        row = res["coordinates"][0]
        assert row["nearest_integer"] == 0 and row["residual"] < 1e-6

    def test_refuses_non_integer_framing(self):
        with pytest.raises(ConvergenceError):
            lattice_check(catalog("trefoil"), 1, 2, samples=2 * 10 ** 5,
                          seed=1)

    def test_framed_trefoil_degree1(self):
        res = lattice_check(catalog("trefoil-framed"), 1, 2,
                            samples=4 * 10 ** 5, seed=2)
        row = res["coordinates"][0]
        assert row["nearest_integer"] == 4
        assert row["residual"] <= max(3 * row["stderr"], 0.05)
