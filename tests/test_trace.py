import json

import numpy as np
import pytest

from octupolar import (
    TraceParams, tetra_constraints, trace_classify, trace_critical_points,
    trace_critical_values, trace_potential,
)
from octupolar.trace import POLE_GROUP_MATRICES, TETRA_MAXIMA

rng = np.random.default_rng(31)
SQ23 = np.sqrt(2.0 / 3.0)


def chart_hessian(fn, u0, v0, h=1e-5):
    def g(u, v):
        return fn(u, v)
    hess = np.zeros((2, 2))
    hess[0, 0] = (g(u0 + h, v0) - 2 * g(u0, v0) + g(u0 - h, v0)) / h ** 2
    hess[1, 1] = (g(u0, v0 + h) - 2 * g(u0, v0) + g(u0, v0 - h)) / h ** 2
    hess[0, 1] = hess[1, 0] = (g(u0 + h, v0 + h) - g(u0 + h, v0 - h)
                               - g(u0 - h, v0 + h) + g(u0 - h, v0 - h)) / (4 * h ** 2)
    return hess


def north_chart(p: TraceParams):
    def fn(u, v):
        w = np.sqrt(max(0.0, 1.0 - u * u - v * v))
        return trace_potential(p, [u, v, w])
    return fn


class TestCriticalPoints:
    def test_mu_independent_points(self):
        rep = trace_critical_points(TraceParams(0.0, 1.0, 1.0))
        by = rep.by_label()
        assert (by["p2"].x1, by["p2"].x2) == (0.0, -SQ23)
        assert (by["p3"].x1, by["p3"].x2) == (0.0, SQ23)
        assert (by["p1"].x1, by["p1"].x2) == (0.0, 0.0)

    def test_pair_exists_only_in_window(self):
        assert "p4" in trace_critical_points(TraceParams(0, 1, 0.5)).by_label()
        assert "p4" not in trace_critical_points(TraceParams(0, 1, 2.0)).by_label()
        assert "p4" not in trace_critical_points(TraceParams(0, 1, 0.0)).by_label()

    def test_coalescence_on_p3(self):
        rep = trace_critical_points(TraceParams(0.0, 1.0, np.sqrt(2.0)))
        by = rep.by_label()
        for lbl in ("p4", "p5"):
            assert abs(by[lbl].x1 - by["p3"].x1) < 1e-9
            assert abs(by[lbl].x2 - by["p3"].x2) < 1e-9
            assert by[lbl].multiplicity == 2

    def test_coalescence_on_p2(self):
        rep = trace_critical_points(TraceParams(0.0, 1.0, -np.sqrt(2.0)))
        by = rep.by_label()
        for lbl in ("p4", "p5"):
            assert abs(by[lbl].x2 - by["p2"].x2) < 1e-9

    def test_points_are_critical(self):
        for mu in (-1.3, -0.4, 0.6, 1.2):
            p = TraceParams(0.0, 1.0, mu)
            fn = north_chart(p)
            h = 1e-6
            for q in trace_critical_points(p):
                du = (fn(q.x1 + h, q.x2) - fn(q.x1 - h, q.x2)) / (2 * h)
                dv = (fn(q.x1, q.x2 + h) - fn(q.x1, q.x2 - h)) / (2 * h)
                assert max(abs(du), abs(dv)) < 1e-7

    def test_ellipse_membership(self):
        for mu in (-1.2, -0.5, 0.3, 1.0, 1.4):
            by = trace_critical_points(TraceParams(0, 1, mu)).by_label()
            for lbl in ("p4", "p5"):
                q = by[lbl]
                assert abs(0.75 * q.x1 ** 2 + 1.5 * q.x2 ** 2 - 1.0) < 1e-12

    def test_degenerate_a2(self):
        rep = trace_critical_points(TraceParams(0.0, 0.0, 1.0))
        assert rep.continuum_meridian
        assert set(rep.by_label()) == {"p1", "p2", "p3"}
        assert rep.equator_saddles == ((1.0, 0.0), (-1.0, 0.0))
        by = rep.by_label()
        assert by["p2"].kind == "maximum" and by["p3"].kind == "maximum"

    def test_mu_zero_continuum(self):
        rep = trace_critical_points(TraceParams(0.0, 1.0, 0.0))
        assert rep.continuum_meridian
        assert len(rep.equator_extrema) == 4

    def test_report_of_numpy_scalars_is_json(self):
        # mu = 0 from numpy scalars: the continuum flag stays a Python bool
        rep = trace_critical_points(TraceParams(0.0, np.float64(1.0), np.float64(0.0)))
        assert json.loads(json.dumps(rep.to_report()))["continuum_meridian"] is True

    def test_requires_oriented(self):
        with pytest.raises(ValueError):
            trace_critical_points(TraceParams(0.5, 1.0, 1.0))


class TestCriticalValues:
    def test_reference_values(self):
        vals = trace_critical_values(TraceParams(0.0, 1.0, 1.0))
        assert vals["p1"] == 0.0
        assert abs(vals["p2"] - 2.0 / (3.0 * np.sqrt(3.0))) < 1e-15
        assert abs(vals["p4"] - 4.0 / 9.0) < 1e-15

    def test_values_match_potential(self):
        for mu in (-1.2, 0.7, 1.3):
            for a2 in (1.0, -0.6, 2.5):
                p = TraceParams(0.0, a2, mu * a2)
                vals = trace_critical_values(p)
                for q in trace_critical_points(p):
                    x = np.array([q.x1, q.x2, q.x3])
                    assert abs(trace_potential(p, x) - vals[q.label]) < 1e-12

    def test_scaling_in_a2(self):
        v1 = trace_critical_values(TraceParams(0, 1.0, 0.5))
        v2 = trace_critical_values(TraceParams(0, 3.0, 1.5))
        for k in v1:
            assert abs(3.0 * v1[k] - v2[k]) < 1e-13


class TestClassification:
    INDEX_TABLE = {
        -2.0: {"p2": 1, "p3": 1},
        -1.0: {"p2": -1, "p3": 1, "p4": 1, "p5": 1},
        -0.5: {"p2": -1, "p3": 1, "p4": 1, "p5": 1},
        0.5: {"p2": 1, "p3": -1, "p4": 1, "p5": 1},
        1.0: {"p2": 1, "p3": -1, "p4": 1, "p5": 1},
        2.0: {"p2": 1, "p3": 1},
    }

    def test_index_table(self):
        for mu, expect in self.INDEX_TABLE.items():
            got = trace_classify(TraceParams(0.0, 1.0, mu))
            for lbl, idx in expect.items():
                assert got[lbl][1] == idx, (mu, lbl)
            extra = set(got) - set(expect) - {"p1"}
            assert not extra

    def test_pair_kinds(self):
        got = trace_classify(TraceParams(0, 1, 1.0))
        assert got["p4"][0] == "maximum" and got["p5"][0] == "maximum"
        got = trace_classify(TraceParams(0, 1, -1.0))
        assert got["p4"][0] == "minimum" and got["p5"][0] == "minimum"
        assert trace_classify(TraceParams(0, 1, 3.0))["p3"][0] == "maximum"

    def test_kinds_match_numeric_hessian(self):
        for mu in (-1.9, -1.0, -0.3, 0.4, 1.0, 1.9, 3.0):
            p = TraceParams(0.0, 1.0, mu)
            got = trace_classify(p)
            fn = north_chart(p)
            for q in trace_critical_points(p):
                if q.label == "p1":
                    continue
                eigs = np.linalg.eigvalsh(chart_hessian(fn, q.x1, q.x2))
                if eigs[1] < -1e-6:
                    assert got[q.label][0] == "maximum", (mu, q.label, eigs)
                elif eigs[0] > 1e-6:
                    assert got[q.label][0] == "minimum", (mu, q.label, eigs)
                elif eigs[0] < -1e-6 < 1e-6 < eigs[1]:
                    assert got[q.label][0] == "saddle", (mu, q.label, eigs)

    def test_negative_a2_flips_kinds(self):
        pos = trace_classify(TraceParams(0, 1.0, 1.0))
        neg = trace_classify(TraceParams(0, -1.0, -1.0))  # same mu
        swap = {"maximum": "minimum", "minimum": "maximum"}
        for lbl in pos:
            kind, idx = pos[lbl]
            assert neg[lbl] == (swap.get(kind, kind), idx)

    def test_index_bookkeeping(self):
        # northern points at mu plus their southern mirrors at -mu sum to 2
        for mu in (-1.5, -0.7, 0.4, 1.1, 2.5):
            north = trace_classify(TraceParams(0, 1, mu))
            south = trace_classify(TraceParams(0, 1, -mu))
            total = sum(i for _, i in north.values()) + sum(i for _, i in south.values())
            assert total == 2

    def test_no_equatorial_critical_points(self):
        p = TraceParams(0.0, 1.0, 1.0)
        th = np.linspace(0, 2 * np.pi, 721)
        pts = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
        for x in pts:
            g = np.array([
                2 * p.a2 * x[0] * x[1],
                p.a2 * x[0] ** 2,
                p.a3 * x[1] ** 2])
            gs = g - np.dot(g, x) * x
            assert np.linalg.norm(gs) > 1e-3


class TestCovariance:
    def test_flip_covariance(self):
        for _ in range(50):
            a = rng.normal(size=3)
            x = rng.normal(size=3)
            p = TraceParams(*a)
            pm = TraceParams(*(-a))
            assert abs(trace_potential(p, -x) + trace_potential(p, x)) < 1e-13
            assert abs(trace_potential(pm, x) + trace_potential(p, x)) < 1e-13

    def test_permutation_covariance(self):
        for _ in range(50):
            a = rng.normal(size=3)
            x = rng.normal(size=3)
            for perm in ((1, 2, 0), (2, 0, 1)):
                pp = TraceParams(*a[list(perm)])
                assert abs(trace_potential(pp, x[list(perm)])
                           - trace_potential(TraceParams(*a), x)) < 1e-12


class TestTetraConstraints:
    def test_perturbative_relations(self):
        d = {"dalpha2": 0.7, "dalpha3": -0.4, "dbeta3": 0.2}
        c = tetra_constraints(d, mode="perturbative")
        sq2 = np.sqrt(2.0)
        assert c.a1 == 0.0
        assert abs(c.a2 - (2 * 0.7 - 0.4 / sq2 + 3 * sq2 * 0.2)) < 1e-14
        assert abs(c.a3 - (-sq2 * 0.7 + 2.5 * (-0.4) + 3 * 0.2)) < 1e-14

    def test_oriented_keeps_tetra_points_critical(self):
        c = tetra_constraints({"alpha2": 1.3, "alpha3": 0.4, "beta3": -0.6},
                              mode="oriented")
        h = 1e-6
        for v in TETRA_MAXIMA:
            # tangential gradient must vanish at each vertex
            g = np.zeros(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                g[i] = (c.potential(v + e) - c.potential(v - e)) / (2 * h)
            gt = g - np.dot(g, v) * v
            assert np.linalg.norm(gt) < 1e-8

    def test_nonperturbative_tetra_degeneration(self):
        c = tetra_constraints({"alpha2": 1.0, "alpha3": np.sqrt(2.0)},
                              mode="nonperturbative")
        assert abs(c.a3) < 1e-14
        # proportional to the reference tetrahedral form
        ref = tetra_constraints({"alpha2": 1 / np.sqrt(2), "alpha3": 1.0},
                                mode="nonperturbative")
        for _ in range(20):
            x = rng.normal(size=3)
            assert abs(c.potential(x) - np.sqrt(2.0) * ref.potential(x)) < 1e-12

    def test_nonperturbative_levels(self):
        c = tetra_constraints({"alpha2": 1.0, "alpha3": 0.0}, mode="nonperturbative")
        assert abs(c.values["p1"]) < 1e-15
        assert abs(c.values["p2-p4"] - 8 * np.sqrt(2) / 9) < 1e-14
        assert abs(c.potential(TETRA_MAXIMA[0]) - c.values["p1"]) < 1e-12
        assert abs(c.potential(TETRA_MAXIMA[1]) - c.values["p2-p4"]) < 1e-12

    def test_hessian_closed_forms(self):
        for a2_, a3_ in ((1.0, 0.5), (2.0, -1.0), (1 / np.sqrt(2), 1.0)):
            c = tetra_constraints({"alpha2": a2_, "alpha3": a3_}, mode="nonperturbative")

            def north(u, v):
                return c.potential([u, v, np.sqrt(max(0.0, 1 - u * u - v * v))])

            def south(u, v):
                return c.potential([u, v, -np.sqrt(max(0.0, 1 - u * u - v * v))])

            e_p1 = np.linalg.eigvalsh(chart_hessian(north, 0.0, 0.0))
            assert np.allclose(e_p1, c.hessian_eigs["p1"], atol=5e-5)
            e_p2 = np.linalg.eigvalsh(chart_hessian(south, 0.0, 2 * np.sqrt(2) / 3))
            assert np.allclose(sorted(e_p2), sorted(c.hessian_eigs["p2-p4"]), atol=5e-4)

    def test_maxima_condition(self):
        c = tetra_constraints({"alpha2": 1.0, "alpha3": 0.0}, mode="nonperturbative")
        assert all(e < 0 for e in c.hessian_eigs["p1"])
        assert all(e < 0 for e in c.hessian_eigs["p2-p4"])
        c2 = tetra_constraints({"alpha2": 1.0, "alpha3": -1.0}, mode="nonperturbative")
        assert any(e > 0 for e in c2.hessian_eigs["p1"])  # alpha3 < -alpha2/sqrt(2)

    def test_g_invariance(self):
        c = tetra_constraints({"alpha2": 0.8, "alpha3": 0.3}, mode="nonperturbative")
        for _ in range(100):
            x = rng.normal(size=3)
            v = c.potential(x)
            for m in POLE_GROUP_MATRICES:
                assert abs(c.potential(m @ x) - v) < 1e-12 * max(1.0, abs(v))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            tetra_constraints({"bogus": 1.0}, mode="perturbative")
        with pytest.raises(ValueError):
            tetra_constraints({}, mode="no-such-mode")
