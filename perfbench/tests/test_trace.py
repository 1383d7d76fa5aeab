import numpy as np

import opcalc.linalg
import opcalc.phi_core
import opcalc.stochastic_mc.model
from perfbench.trace import Recorder, self_times, summarize


def _span(sid, name, start, end, parent=None, job=None):
    return (sid, name, start, end, parent, job)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, "outer", 0.0, 10.0),
        _span(2, "a", 1.0, 3.0, parent=1),
        _span(3, "b", 2.0, 4.0, parent=1),  # overlaps a: counted once
        _span(4, "c", 8.0, 12.0, parent=1),  # clipped to the parent's end
        _span(5, "leaf", 1.5, 2.5, parent=2),  # grandchild: only a loses it
    ]
    selfs = self_times(spans)
    assert selfs[1] == 10.0 - (3.0 + 2.0)
    assert selfs[2] == 2.0 - 1.0
    assert selfs[3] == 2.0
    assert selfs[5] == 1.0


def test_summarize_sums_calls_total_and_self():
    spans = [
        _span(1, "f", 0.0, 4.0),
        _span(2, "g", 1.0, 2.0, parent=1),
        _span(3, "g", 2.5, 3.0, parent=1),
        _span(4, "f", 5.0, 6.0),
    ]
    summ = summarize(spans)
    assert summ["f"] == {"calls": 2, "total_s": 5.0, "self_s": 3.5}
    assert summ["g"]["calls"] == 2
    assert summ["g"]["self_s"] == summ["g"]["total_s"] == 1.5


def test_traced_call_records_parents_counts_and_restores_originals():
    originals = {
        "phi_fermionic": opcalc.phi_core.phi_fermionic,
        "expm": opcalc.linalg.expm,
        "model_phi_fermionic": opcalc.stochastic_mc.model.phi_fermionic,
        "torus_init": opcalc.stochastic_mc.model.TorusModel.__init__,
    }
    recorder = Recorder()
    recorder.observe("linalg.expm", lambda counts, m: counts.__setitem__("dim", m.shape[0]))
    recorder.install()
    try:
        assert opcalc.phi_core.phi_fermionic is not originals["phi_fermionic"]
        assert opcalc.stochastic_mc.model.phi_fermionic is not originals["model_phi_fermionic"]
        patched = recorder.patched
        recorder.job = "tiny"
        h = opcalc.linalg.hermitian(np.diag([0.0, 1.0]), require_nonneg=True)
        fam = opcalc.phi_core.OperatorFamily(h, (np.eye(2),))
        opcalc.phi_core.phi_fermionic(fam, 0.5)
    finally:
        recorder.remove()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    assert opcalc.phi_core.phi_fermionic is originals["phi_fermionic"]
    assert opcalc.linalg.expm is originals["expm"]
    assert opcalc.stochastic_mc.model.phi_fermionic is originals["model_phi_fermionic"]
    assert opcalc.stochastic_mc.model.TorusModel.__init__ is originals["torus_init"]

    by_name = {span[1]: span for span in recorder.spans}
    assert by_name["linalg.expm"][4] == by_name["phi_core.phi_fermionic"][0]
    assert by_name["phi_core.build_lift"][4] == by_name["phi_core.phi_fermionic"][0]
    assert by_name["phi_core.phi_fermionic"][4] is None
    assert all(span[5] == "tiny" for span in recorder.spans)
    assert recorder.counts["dim"] == 4  # n 2^n dim = 1 * 2 * 2
