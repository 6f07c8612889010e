import numpy as np
import pytest

from cslinks.curves import (CATALOG_NAMES, LinkCurve, catalog,
                            validate_embedding)
from cslinks.errors import DiagramError
from cslinks.projection import (_rotation, component_crossings,
                                diagram_crossings, gauss_code, linking_oracle,
                                smoothing_linking, switch_crossing,
                                v2_from_code, v2_oracle, writhe_oracle)


def torus_2q(q):
    cos = np.zeros((q + 2, 3))
    sin = np.zeros((q + 2, 3))
    cos[1, 0] = 2
    sin[1, 1] = 2
    cos[q + 1, 0] += 0.5
    cos[q - 3, 0] += 0.5
    sin[q + 1, 1] += 0.5
    sin[q - 3, 1] -= 0.5
    sin[q - 1, 2] = 1
    return LinkCurve([(np.zeros(3), cos, sin)])


class TestCrossings:
    def test_hopf_linking(self):
        assert linking_oracle(catalog("hopf-link"), 0, 1) == 1

    def test_unlink(self):
        assert linking_oracle(catalog("unlink-2"), 0, 1) == 0

    def test_reversed_component_flips_sign(self):
        c = catalog("hopf-link")
        const, cos, sin = c.components[1]
        rev = LinkCurve([c.components[0], (const, cos, -sin)])
        assert linking_oracle(rev, 0, 1) == -1

    def test_crossing_on_closing_segment(self):
        # four samples of a curve whose projection is a bow tie: the one
        # crossing lies between segment 1 and the closing segment 3 -> 0
        q = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [0, 0, 0]], float)
        p = q @ _rotation()          # undo the projection's rotation
        const = p.mean(axis=0)
        cos = [(p[0] - p[2]) / 2, (p[0] + p[2] - p[1] - p[3]) / 4]
        sin = [(p[1] - p[3]) / 2, np.zeros(3)]
        crossings = diagram_crossings(LinkCurve([(const, cos, sin)]), 4)
        assert len(crossings) == 1
        c = crossings[0]
        assert c.param_over < np.pi < 1.5 * np.pi < c.param_under

    def test_trefoil_writhe(self):
        assert writhe_oracle(catalog("trefoil")) == 3

    def test_kinked_unknot_writhe(self):
        assert writhe_oracle(catalog("unknot-planar-perturbed")) == 1

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_pair_scans_equal_filtered_all_pairs(self, name):
        # the oracles scan one component pair; they keep the crossings, in
        # the order, that the all-pairs scan gives for that pair
        c = catalog(name)
        every = diagram_crossings(c)
        comps = range(c.n_components)
        for m1 in comps:
            for m2 in comps:
                pair = [x for x in every
                        if {x.comp_over, x.comp_under} == {m1, m2}]
                assert component_crossings(c, m1, m2) == pair
            own = [x for x in every if x.comp_over == x.comp_under == m1]
            assert writhe_oracle(c, m1) == sum(x.sign for x in own)
            passages = sorted(
                [(x.param_over, i, True, x.sign) for i, x in enumerate(own)]
                + [(x.param_under, i, False, x.sign)
                   for i, x in enumerate(own)])
            assert gauss_code(c, m1) == [p[1:] for p in passages]
        if c.n_components == 2:
            cross = [x for x in every if x.comp_over != x.comp_under]
            assert 2 * linking_oracle(c, 0, 1) == sum(x.sign for x in cross)
            assert linking_oracle(c, 1, 0) == linking_oracle(c, 0, 1)

    def test_component_out_of_range(self):
        with pytest.raises(DiagramError, match="component 2 out of range"):
            linking_oracle(catalog("hopf-link"), 0, 2)
        with pytest.raises(DiagramError, match="component -1 out of range"):
            writhe_oracle(catalog("trefoil"), -1)

    def test_crossing_count_stable(self):
        for samples in (2048, 4096):
            assert len(gauss_code(catalog("figure8"), samples=samples)) == 8


class TestV2Oracle:
    def test_unknot(self):
        assert v2_oracle(catalog("unknot-planar-perturbed")) == 0

    def test_trefoils(self):
        assert v2_oracle(catalog("trefoil")) == 1
        assert v2_oracle(catalog("trefoil-alt")) == 1

    def test_figure8(self):
        assert v2_oracle(catalog("figure8")) == -1

    @pytest.mark.parametrize("q,expected", [(3, 1), (5, 3), (7, 6)])
    def test_torus_knots(self, q, expected):
        c = torus_2q(q)
        validate_embedding(c)
        assert v2_from_code(gauss_code(c, samples=8192)) == expected

    def test_basepoint_independence(self):
        code = gauss_code(catalog("figure8"))
        values = {v2_from_code(code[k:] + code[:k])
                  for k in range(len(code))}
        assert values == {-1}

    def test_crossing_change_skein(self):
        # v2(K+) - v2(K-) = lk(oriented smoothing), the defining recursion
        for name in ("trefoil", "figure8"):
            code = gauss_code(catalog(name))
            for cid in sorted({c for c, _, _ in code}):
                cur = v2_from_code(code)
                switched = v2_from_code(switch_crossing(code, cid))
                sign = next(s for c, _, s in code if c == cid)
                lk0 = smoothing_linking(code, cid)
                vplus, vminus = (cur, switched) if sign > 0 else (switched, cur)
                assert vplus - vminus == lk0

    def test_descending_code_vanishes(self):
        code = gauss_code(catalog("figure8"))
        first = {}
        for cid, over, _ in code:
            first.setdefault(cid, over)
        for cid, over in first.items():
            if not over:
                code = switch_crossing(code, cid)
        assert v2_from_code(code) == 0

    def test_mirror_invariance(self):
        # global sign flip (mirror image) leaves the pairwise count alone
        code = gauss_code(catalog("trefoil"))
        mirrored = [(c, not over, -s) for c, over, s in code]
        assert v2_from_code(mirrored) == v2_from_code(code)
