import numpy as np
import pytest

from cslinks.curves import (CATALOG_NAMES, JET_BLOCK, LinkCurve, catalog,
                            validate_embedding)
from cslinks.errors import EmbeddingError


def points_last(rows):
    """A jet's (3, ...) point and velocity rows as (..., 3) arrays."""
    return [np.moveaxis(a, 0, -1) for a in rows]


class TestEvaluation:
    def test_periodicity(self):
        c = catalog("trefoil")
        ts = np.linspace(0, 2 * np.pi, 17)
        assert np.allclose(c.eval(0, ts), c.eval(0, ts + 2 * np.pi),
                           atol=1e-12)

    def test_round_circle_tangent(self):
        c = catalog("unknot-round")
        assert np.allclose(c.tangent(0, 0.0), [0, 1, 0], atol=1e-12)

    def test_tangent_is_normalized_derivative(self):
        c = catalog("figure8")
        rng = np.random.default_rng(0)
        h = 1e-6
        for t in rng.uniform(0, 2 * np.pi, 10):
            fd = (c.eval(0, t + h) - c.eval(0, t)) / h
            v = c.deriv(0, t)
            assert np.linalg.norm(fd - v) < 1e-4 * max(1, np.linalg.norm(v))
            assert abs(np.linalg.norm(c.tangent(0, t)) - 1) < 1e-12

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_jet_is_eval_and_deriv(self, name):
        # one jet gives the same bits as the two evaluations
        c = catalog(name)
        rng = np.random.default_rng(4)
        for t in (1.3, rng.uniform(0, 2 * np.pi, 50),
                  rng.uniform(-7, 7, (20, 3))):
            for m in range(c.n_components):
                x, v = points_last(c.jet(m, t))
                assert np.array_equal(x, c.eval(m, t))
                assert np.array_equal(v, c.deriv(m, t))
                assert x.shape == v.shape == np.shape(t) + (3,)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_jet_matches_direct_table(self, name):
        # the powers of e^{it} against cos(ht), sin(ht) evaluated directly,
        # to 1e-13 of the coefficient scale, which bounds every coordinate
        # of the point and of the velocity
        c = catalog(name)
        rng = np.random.default_rng(5)
        for t in (1.3, -99.7, rng.uniform(-7, 7, 50),
                  rng.uniform(-7, 7, (20, 3)), rng.uniform(-100, 100, 50),
                  rng.uniform(-100, 100, (20, 3))):
            for m in range(c.n_components):
                const, cos, sin = c.components[m]
                h = np.arange(1, len(cos) + 1)
                ht = np.multiply.outer(t, h)
                x = const + np.cos(ht) @ cos + np.sin(ht) @ sin
                v = (h * np.cos(ht)) @ sin - (h * np.sin(ht)) @ cos
                scale = np.max(np.abs(const) + h @ (np.abs(cos) + np.abs(sin)))
                jx, jv = points_last(c.jet(m, t))
                assert jx.shape == jv.shape == np.shape(t) + (3,)
                assert np.max(np.abs(jx - x)) <= 1e-13 * scale
                assert np.max(np.abs(jv - v)) <= 1e-13 * scale

    @pytest.mark.parametrize("name", ["trefoil", "trefoil-framed",
                                      "hopf-link"])
    def test_jet_over_column_blocks(self, name):
        # the product runs in column blocks: a jet over several of them is
        # the jets of its blocks, bit for bit, and its rows are eval and
        # deriv
        c = catalog(name)
        t = np.random.default_rng(6).uniform(0, 4 * np.pi, 3 * JET_BLOCK + 5)
        for m in range(c.n_components):
            x, v = c.jet(m, t)
            pieces = [c.jet(m, t[start:start + JET_BLOCK])
                      for start in range(0, len(t), JET_BLOCK)]
            assert np.array_equal(x, np.hstack([p for p, _ in pieces]))
            assert np.array_equal(v, np.hstack([q for _, q in pieces]))
            assert np.array_equal(x.T, c.eval(m, t))
            assert np.array_equal(v.T, c.deriv(m, t))

    def test_jet_of_constant_component(self):
        # no harmonics (H = 0): the point is the constant, the velocity 0
        c = LinkCurve([([1.0, -2.0, 0.5], [], [])])
        for t in (0.7, np.linspace(-3, 3, 20).reshape(4, 5)):
            x, v = points_last(c.jet(0, t))
            assert x.shape == v.shape == np.shape(t) + (3,)
            assert np.array_equal(x, np.broadcast_to([1.0, -2.0, 0.5],
                                                     x.shape))
            assert np.array_equal(v, np.zeros(np.shape(t) + (3,)))

    def test_tangent_witness_is_first_zero_velocity(self):
        # (cos t, 0, 0) stops at t = 0 and t = pi
        c = LinkCurve([([0, 0, 0], [[1, 0, 0]], [[0, 0, 0]])])
        ts = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        with pytest.raises(EmbeddingError) as err:
            c.tangent(0, ts)
        assert err.value.witness == (0, 0.0)
        with pytest.raises(EmbeddingError) as err:
            c.tangent(0, ts[1:])
        assert err.value.witness == (0, float(ts[4]))


class TestCatalog:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_all_entries_embed(self, name):
        rep = validate_embedding(catalog(name))
        assert rep["min_speed"] > 0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog("no-such-knot")

    def test_hopf_components_separated(self):
        rep = validate_embedding(catalog("hopf-link"))
        assert rep["min_separation_cross"] > 0.1

    def test_round_unknot_is_planar_unit_circle(self):
        c = catalog("unknot-round")
        ts = np.linspace(0, 2 * np.pi, 64)
        pts = c.eval(0, ts)
        assert np.allclose(np.linalg.norm(pts[:, :2], axis=1), 1, atol=1e-12)
        assert np.allclose(pts[:, 2], 0, atol=1e-12)


class TestValidation:
    def test_coincident_circles_fail_with_witness(self):
        c = LinkCurve([
            ([0, 0, 0], [[1, 0, 0]], [[0, 1, 0]]),
            ([0, 0, 0], [[1, 0, 0]], [[0, 1, 0]]),
        ])
        with pytest.raises(EmbeddingError) as err:
            validate_embedding(c)
        assert err.value.witness is not None

    def test_self_intersecting_fails(self):
        # planar limaçon without the lift self-intersects at the curl; a
        # transversal crossing needs eta matched to the sampling resolution
        c = LinkCurve([([1, 0, 0], [[1, 0, 0], [1, 0, 0]],
                        [[0, 1, 0], [0, 1, 0]])])
        with pytest.raises(EmbeddingError):
            validate_embedding(c, samples=8192, eta=0.01)

    def test_witness_is_the_worst_pair(self):
        # two planar limaçons 0.008 apart: the worst pair is a self-approach
        # of component 0 (7.7e-4), not the closer-than-eta pair across
        # the components
        limacon = ([1, 0, 0], [[1, 0, 0], [1, 0, 0]], [[0, 1, 0], [0, 1, 0]])
        lifted = ([1, 0, 0.008],) + limacon[1:]
        c = LinkCurve([limacon, lifted])
        with pytest.raises(EmbeddingError) as err:
            validate_embedding(c, samples=8192, eta=0.01)
        assert "separation 7.67e-04" in str(err.value)
        m, m2, t1, t2 = err.value.witness
        assert (m, m2) == (0, 0)
        gap = np.linalg.norm(c.eval(0, t1) - c.eval(0, t2))
        assert gap == pytest.approx(7.67e-4, abs=1e-6)

    @pytest.mark.parametrize("component", [
        ([np.nan, 0, 0], [[1, 0, 0]], [[0, 1, 0]]),
        ([0, 0, 0], [[np.inf, 0, 0]], [[0, 1, 0]]),
        ([0, 0, 0], [[1e200, 0, 0]], [[0, 1e200, 0]])],
        ids=["nan-point", "infinite-coefficient", "infinite-speed"])
    def test_nonfinite_curve_fails(self, component):
        with pytest.raises(EmbeddingError, match="not finite"):
            validate_embedding(LinkCurve([component]))

    def test_overflowing_separation_fails(self):
        # finite points and speeds, but the distance between the two
        # components overflows
        c = LinkCurve([([1e200, 0, 0], [[1, 0, 0]], [[0, 1, 0]]),
                       ([-1e200, 0, 0], [[1, 0, 0]], [[0, 1, 0]])])
        with pytest.raises(EmbeddingError, match="not finite"):
            validate_embedding(c)

    def test_zero_velocity_fails(self):
        c = LinkCurve([([0, 0, 0], [[0, 0, 0]], [[0, 0, 0]])])
        with pytest.raises(EmbeddingError):
            validate_embedding(c)


class TestJson:
    def test_roundtrip(self):
        c = catalog("trefoil")
        back = LinkCurve.from_json(c.to_json())
        ts = np.linspace(0, 2 * np.pi, 11)
        assert np.allclose(c.eval(0, ts), back.eval(0, ts), atol=1e-15)

    @pytest.mark.parametrize("text", ['[1, 2]', '{"components": 5}',
                                      '{"components": []}',
                                      '{"components": [{"cos": []}]}',
                                      '{"components": [{"const": [0, 0]}]}',
                                      '{"components": [{"const": [0, 0, 0], '
                                      '"cos": [[1, 0]]}]}',
                                      '{"components": [{"const": '
                                      '[0, "x", 0]}]}'])
    def test_wrong_schema(self, text):
        with pytest.raises(ValueError, match="components"):
            LinkCurve.from_json(text)

    def test_schema_fields(self):
        import json
        data = json.loads(catalog("hopf-link").to_json())
        assert len(data["components"]) == 2
        assert set(data["components"][0]) == {"const", "cos", "sin"}
