"""Reduced-size passes of each workload, through the same measuring code."""

import argparse
import json
import os

import numpy as np
import pytest

import opcalc.jsonio
import opcalc.stochastic_mc.localize
import opcalc.stochastic_mc.model
from perfbench import inputs, report, workloads

with open(os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
REDUCED = {
    "phi_grid": lambda seed, wd: workloads.phi_grid(seed, wd, cells=((1, 2), (2, 8), (3, 8))),
    "mode_oracle": lambda seed, wd: workloads.mode_oracle(seed, wd, with_d4=False),
    "path_mc": lambda seed, wd: workloads.path_mc(seed, wd, scale=0.25),
}


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_reduced_pass_passes_every_check(name, tmp_path):
    wl = REDUCED[name](7, str(tmp_path))
    wl.warmup()
    args = argparse.Namespace(workload=name, seed=7, seconds=0.0, trace=1)
    result = report.measure(wl, args, setup_s=1.0, nproc=1, script="unused")
    failed = [c for c in result["checks"] if not c.passed]
    assert not failed
    assert len(result["passes"]) == report.MIN_PASSES
    for label in ("untraced", "traced"):
        assert any(c.name == f"digest_repeats.{label}" for c in result["checks"])
    if name == "path_mc":
        assert any(c.name == "digest_1_vs_2_workers" for c in result["checks"])

    layer = report.per_layer(result)
    assert list(layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [u for _v, u in layer.values()] == [m["unit"] for m in BENCHMARK["per_layer"]]
    e2e = report.end_to_end(result)
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(v > 0 for v, _u in e2e.values())


def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path):
    texts = {}
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        wd = tmp_path / label
        wd.mkdir()
        for make in inputs.GENERATORS.values():
            make(seed, str(wd))
        texts[label] = {p.name: p.read_text() for p in sorted(wd.iterdir())}
    assert texts["a"] == texts["b"]
    assert texts["a"] != texts["c"]


def test_flat_closed_form_matches_per_mode_route_in_d2():
    cfg = {
        "d": 2,
        "chain": [
            {"prime": [{"indices": [1], "re": 0.7}]},
            {"prime": [{"indices": [2], "re": -0.4}], "doubleprime": [{"indices": [2], "re": 1.3}]},
        ],
    }
    _, chain = opcalc.jsonio.chain_from_json(cfg)
    value = opcalc.stochastic_mc.localize.localization_value(chain, 1.6, 6)
    ref, scale = workloads.flat_closed_form(chain, 1.6, 6)
    assert abs(ref) > 0.1 * scale
    assert abs(value - ref) <= workloads.D4_TOL * scale


def test_kernel_reference_matches_spectral_kernel_on_a_small_truncation():
    cfg = inputs.criterion9_model(True)
    x, y = np.array([0.3, 1.1]), np.array([2.0, 5.0])
    model = opcalc.jsonio.torus_model_from_json(cfg)
    got = opcalc.stochastic_mc.model.spectral_phi_kernel(model, 1.5, x, y, 8)
    ref = workloads.kernel_reference(cfg, 1.5, x, y, 8)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _fk_data(code, z, other_verdict=True):
    oracle = np.array([[1.0, 0.2j], [-0.2j, 0.8]])
    stderr = 1e-3
    est = oracle + z * stderr
    report = {
        "verdicts": {"within_3_stderr": bool(z <= 3.0), "other": other_verdict},
        "results": {
            "estimate": inputs.matrix_json(est),
            "oracle": inputs.matrix_json(oracle),
            "z_scores": inputs.matrix_json(np.abs(est - oracle) / stderr),
        },
    }
    return {"code": code, "report": report, "text": ""}


@pytest.mark.parametrize(
    "code, z, other, passes",
    [
        (0, 1.0, True, True),
        (1, 3.4, True, True),  # CLI's 3 SE verdict false, within the 4.24 SE gate
        (1, 4.6, True, False),  # outside the gate
        (1, 3.4, False, False),  # another verdict false
        (2, 1.0, True, False),  # usage error
    ],
)
def test_fk_gate_replaces_only_the_cli_3_stderr_verdict(code, z, other, passes):
    job = workloads._cli_job("fk.n0", [], "unused", workloads._fk_oracle,
                             replaced=("within_3_stderr",))
    checks = job.checks(_fk_data(code, z, other))
    assert all(c.passed for c in checks) == passes
    assert not any(c.name == "verdict.within_3_stderr" for c in checks)
    gate = next(c for c in checks if c.name == "within_z_gate")
    assert gate.ratio == pytest.approx(z / workloads.FK_Z_GATE)


def test_passes_continue_to_min_passes_within_the_budget_only():
    budget = report.PASS_BUDGET_S
    assert report._another_pass([], 0.0, 20.0)
    assert report._another_pass([30.0], 30.0, 20.0)  # below MIN_PASSES
    assert not report._another_pass([0.6 * budget], 0.6 * budget, 20.0)  # past the budget
    assert not report._another_pass([6.0] * report.MIN_PASSES, 18.0, 20.0)
    assert report._another_pass([5.0] * report.MIN_PASSES, 15.0, 20.0)
