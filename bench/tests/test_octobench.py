"""Tests of the benchmark's own input generation, argv formatting and tracing."""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import workloads  # noqa: E402
from octupolar import cli, separatrix, topology  # noqa: E402

WORKLOADS = sorted(workloads.BLOCKS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    make, probe = workloads.BLOCKS[workload], workloads.PROBES[workload]
    assert [make(11, b) for b in range(3)] == [make(11, b) for b in range(3)]
    assert probe(11) == probe(11)


def _categories(ops):
    return [op["category"] for op in ops]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_same_composition(workload):
    make, probe = workloads.BLOCKS[workload], workloads.PROBES[workload]
    for b in range(3):
        one, two = make(11, b), make(12, b)
        assert _categories(one) == _categories(two)
        if workload == "tensors":
            assert sorted(op["panel_index"] for op in one) == list(workloads.PANEL_TIMED)
        else:
            assert one != two
    assert _categories(probe(11)) == _categories(probe(12))


def test_points_probe_is_stratified_over_each_band():
    ops = workloads.points_probe(3)
    rho = np.array([op["rho"] for op in ops if op["category"] == "axis_band"])
    assert len(rho) == workloads.POINT_PROBE_DRAWS
    # one draw in each of the equal slices of [log 1e-8, log POINT_MARGIN]
    span = np.log(workloads.POINT_MARGIN) - np.log(1e-8)
    slot = np.floor((np.log(rho) - np.log(1e-8)) / span * len(rho))
    assert sorted(slot) == list(range(len(rho)))


def test_points_cover_the_cylinder_and_canonicalize_back():
    from octupolar.potential import canonicalize_params
    ops = [op for b in range(20) for op in workloads.points_block(5, b)] + workloads.points_probe(5)
    chis = np.array([op["chi"] for op in ops])
    assert chis.min() < -2.0 and chis.max() > 2.0
    assert any(op["K"] < 0 for op in ops)
    for op in ops:
        if op["category"] == "chi_band_pi6":
            canon = canonicalize_params(op["rho"], op["chi"], op["K"])[0]
            assert 1e-7 * 0.99 <= -np.pi / 6 - canon.chi <= workloads.POINT_MARGIN * 1.01


def test_hd_quantile_matches_percentile_on_large_samples():
    import run
    x = np.random.default_rng(0).lognormal(size=4000)
    for q in (0.5, 0.9):
        assert run.hd_quantile(x, q) == pytest.approx(np.percentile(x, 100 * q), rel=0.02)
    assert run.hd_quantile([3.0] * 6, 0.9) == pytest.approx(3.0)


def test_cli_float_survives_argparse():
    for x in (np.float64(-1.2), -1.5e-06, 2.0, -0.0):
        arg = workloads.cli_float("--K", x)
        args = cli.build_parser().parse_args(["eigen", "--rho", "1", arg])
        assert args.K == float(x)


def test_self_time_on_synthetic_tree():
    # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6] and d [6, 7.5]
    spans = [
        (0, "root", 0.0, 10.0, None),
        (1, "a", 1.0, 3.0, 0),
        (2, "b", 4.0, 8.0, 0),
        (3, "c", 5.0, 6.0, 2),
        (4, "d", 6.0, 7.5, 2),
    ]
    st = layers.self_times(spans)
    assert st[0] == pytest.approx(10.0 - 2.0 - 4.0)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(4.0 - 1.0 - 1.5)
    assert st[3] == pytest.approx(1.0)
    assert st[4] == pytest.approx(1.5)


def test_tracer_patches_every_binding_and_restores():
    original = topology.full_topology
    with layers.Tracer():
        assert separatrix.full_topology is not original
        assert topology.full_topology is separatrix.full_topology
    assert topology.full_topology is original and separatrix.full_topology is original


def test_one_eigen_op_spans():
    op = {"category": "interior", "rho": 1.2, "chi": -1.1, "K": 0.9}
    tracer = layers.Tracer()
    tracer.op = 0
    with tracer:
        res = workloads.run_point(op, "")
    assert res.ok, res.error
    pairs = json.loads(res.output["stdout"])["pairs"]
    names = [s[1] for s in tracer.spans]
    assert names.count("eigen.solve_oriented") == 2
    assert names.count("topology.classify") == len(pairs) == 7
    assert names[0] == "cli.main" and all(s[5] == 0 for s in tracer.spans)
    m = tracer.layer_metrics({0})
    assert m["eigen.solve_oriented.calls_per_op"][0] == 2.0
    assert workloads.check_point(res.output) == ""
