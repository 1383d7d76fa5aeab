import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opcalc
from opcalc import acceptance, cli
from opcalc.jsonio import matrix_to_json, write_report


@pytest.fixture()
def family_config(tmp_path):
    cfg = {
        "H": matrix_to_json(np.diag([0.0, 1.3]).astype(complex)),
        "P": [matrix_to_json(np.array([[0, 1], [1, 0]], dtype=complex))],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(args):
    return cli.main(args)


def test_phi_all_methods_report(family_config, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(
        ["phi", "--config", family_config, "--t", "0.5", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    devs = report["results"]["pairwise_relative_deviation"]
    assert max(devs.values()) <= 1e-6
    assert report["verdicts"]["cross_method_1e-6"] is True
    assert "results_digest" in report
    for method in ("fermionic", "quadrature", "ode"):
        mat = report["results"][method]["value"]
        assert mat["rows"] == mat["cols"] == 2


def test_phi_fermionic_over_the_expm_norm_limit_exits_2(tmp_path, capsys):
    cfg = {
        "H": matrix_to_json(np.diag([0.0, 2e4]).astype(complex)),
        "P": [matrix_to_json(np.array([[0, 1], [1, 0]], dtype=complex))] * 2,
    }
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    args = ["phi", "--config", str(path), "--t", "1", "--method", "fermionic"]
    assert run_cli(args + ["--out", str(out)]) == 2
    assert "exceeds expm limit" in capsys.readouterr().err
    assert not out.exists()


def test_phi_malformed_matrix_exits_2(tmp_path, capsys):
    bad = {"H": {"rows": 2, "cols": 2, "re": [1.0, 0.0, 0.0], "im": [0.0] * 4}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run_cli(["phi", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "family.H" in err


def test_phi_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert run_cli(["phi", "--config", str(path)]) == 2
    assert ":1:" in capsys.readouterr().err  # line-referenced location


@pytest.mark.parametrize("content, message", [
    (b"[1, 2]", "expected a JSON object"),
    (b'{"H": "\xff"}', "not UTF-8"),
    (b"\xef\xbb\xbf{}", "Unexpected UTF-8 BOM"),
    ("{}".encode("utf-16"), "not UTF-8"),
])
def test_config_must_be_a_utf8_json_object(tmp_path, capsys, content, message):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert run_cli(["phi", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_config_is_read_once(family_config, tmp_path, monkeypatch):
    """The report echoes the config as it was parsed, even when the file
    changes while the command runs."""
    parsed = json.loads(Path(family_config).read_text())
    fermionic = cli.phi_core.phi_fermionic

    def rewrite_then_evaluate(fam, t):
        Path(family_config).write_text(json.dumps({"H": parsed["H"], "note": "rewritten"}))
        return fermionic(fam, t)

    monkeypatch.setattr(cli.phi_core, "phi_fermionic", rewrite_then_evaluate)
    out = tmp_path / "report.json"
    assert run_cli(["phi", "--config", family_config, "--method", "fermionic",
                    "--out", str(out)]) == 0
    assert json.loads(Path(family_config).read_text())["note"] == "rewritten"
    assert json.loads(out.read_text())["config"] == parsed


def test_config_echo_keeps_the_file_spelling(tmp_path):
    """The report's config is the file's own JSON text on one line: its
    number spellings and key order, not a re-encoding of the parsed values."""
    path = tmp_path / "family.json"
    matrix = '{"rows": 1, "cols": 1, "re": [1.30], "im": [0]}'
    path.write_text(f'{{"t": 5.0e-1,\n\t"H": {matrix},\r\n"P": [{matrix}]}}\n')
    out = tmp_path / "report.json"
    assert run_cli(["phi", "--config", str(path), "--out", str(out)]) == 0
    echo = f'"config": {{"t": 5.0e-1,  "H": {matrix},  "P": [{matrix}]}}'
    assert echo in out.read_text()


def test_jlo_subcommand_sweep(tmp_path, capsys):
    cfg = {
        "d": 2,
        "chain": [{"prime": [{"indices": [1, 2], "re": 1.0}]}],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "jlo.json"
    csv_path = tmp_path / "jlo.csv"
    code = run_cli(
        ["jlo", "--config", str(path), "--t-grid", "1.6,0.8",
         "--truncation", "5", "--out", str(out), "--csv", str(csv_path)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["within_2_percent"] is True
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "t,value_re,value_im"
    assert len(rows) == 3


def test_ahat_subcommand(tmp_path):
    cfg = {
        "d": 4,
        "omega": [
            [None, [{"indices": [1, 2], "re": 0.8}, {"indices": [3, 4], "re": -1.1}], None, None],
            [[{"indices": [1, 2], "re": -0.8}, {"indices": [3, 4], "re": 1.1}], None, None, None],
            [None, None, None, None],
            [None, None, None, None],
        ],
    }
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "ahat.json"
    assert run_cli(["ahat", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    top = report["results"]["top"]
    assert abs(top["re"] - 0.8 * (-1.1) / 12.0) < 1e-12


def test_fk_subcommand_small(tmp_path):
    cfg = {
        "d": 1,
        "r": 1,
        "W": matrix_to_json(np.array([[0.4]], dtype=complex)),
        "t": 0.5,
        "x": [0.3],
        "y": [1.0],
        "paths": 2000,
        "steps": 32,
        "K": 12,
    }
    path = tmp_path / "fk.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "fk_report.json"
    code = run_cli(["fk", "--config", str(path), "--out", str(out), "--seed", "0"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["within_3_stderr"] is True


def test_fk_zero_variance_estimate_at_the_guard_edge(tmp_path):
    """A zeroth-order perturbation alone gives every path the same value, so
    the stderr is at the rounding scale; at K = 15, t = 0.2 the oracle still
    carries its truncation tail, which the z-scores must not count."""
    zero = matrix_to_json(np.zeros((2, 2), dtype=complex))
    cfg = {
        "d": 2,
        "r": 2,
        "perturbations": [
            {"S": [zero, zero], "V": matrix_to_json(np.array([[0.7, 0.2], [0.2, -0.3]]))}
        ],
        "t": 0.2,
        "paths": 64,
        "steps": 8,
        "K": 15,
    }
    path = tmp_path / "fk.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "fk_report.json"
    assert run_cli(["fk", "--config", str(path), "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    assert max(results["stderr"]["re"]) < 1e-15
    assert max(results["z_scores"]["re"]) <= 3.0


FK_COUNTS_CONFIG = {
    "d": 1, "r": 1, "t": 0.5, "x": [0.3], "y": [1.0], "paths": 64, "steps": 8, "K": 12,
}
LEVY_COUNTS_CONFIG = {
    "d": 2,
    "omega": [
        [None, [{"indices": [1, 2], "re": 0.9}]],
        [[{"indices": [1, 2], "re": -0.9}], None],
    ],
    "paths": 64,
    "steps": 8,
}
LOCALIZE_CHAIN_CONFIG = {"d": 2, "chain": [{"prime": [{"indices": [1, 2], "re": 1.0}]}]}
PHI_FAMILY_CONFIG = {"H": matrix_to_json(np.diag([0.0, 1.3]).astype(complex))}
# w0' = e1e2, w1' = w2' = e1: both partitions (1)(2) and (12) survive, so the
# Monte Carlo check draws streams 0 and 1 of the seed
TWO_PARTITION_CHAIN = [
    {"prime": [{"indices": [1, 2], "re": 1.0}]},
    {"prime": [{"indices": [1], "re": 1.0}]},
    {"prime": [{"indices": [1], "re": 1.0}]},
]
SEED_LIMIT = 2**64  # Philox keys are unsigned 64-bit words


@pytest.mark.parametrize(
    "command, argv, override, location",
    [
        ("fk", ["--paths", "0"], {}, "--paths"),
        ("fk", ["--steps", "0"], {}, "--steps"),
        ("fk", ["--steps", "-3"], {}, "--steps"),
        ("fk", ["--truncation", "0"], {}, "--truncation"),
        ("fk", [], {"paths": 0}, "config.paths"),
        ("fk", [], {"steps": -1}, "config.steps"),
        ("fk", [], {"K": 0}, "config.K"),
        ("fk", [], {"paths": 64.0}, "config.paths"),
        ("levy-area", ["--paths", "0"], {}, "--paths"),
        ("levy-area", ["--steps", "-2"], {}, "--steps"),
        ("levy-area", [], {"paths": 0}, "config.paths"),
        ("levy-area", [], {"steps": 0}, "config.steps"),
        ("fk", ["--workers", "0"], {}, "--workers"),
        ("fk", ["--workers", "-2"], {}, "--workers"),
        ("localize", ["--truncation", "0"], {}, "--truncation"),
        ("localize", ["--truncation", "-4"], {}, "--truncation"),
        ("localize", ["--paths", "64", "--steps", "0"], {}, "--steps"),
        ("localize", ["--paths", "-3"], {}, "--paths"),
        ("jlo", ["--truncation", "-3"], {}, "--truncation"),
        ("patodi", ["--words", "0"], {}, "--words"),
        ("patodi", ["--words", "-5"], {}, "--words"),
        ("bridge-test", ["--samples", "0"], {}, "--samples"),
        ("bridge-test", ["--bins", "0"], {}, "--bins"),
        ("bridge-test", ["--bins", "1"], {}, "--bins"),
        ("bridge-test", ["--d", "0"], {}, "--d"),
        ("bridge-test", ["--t", "-0.5"], {}, "--t"),
        ("bridge-test", ["--t", "0"], {}, "--t"),
        ("fk", ["--seed", "-1"], {}, "--seed"),
        ("fk", [], {"seed": -1}, "config.seed"),
        ("levy-area", ["--seed", "-1"], {}, "--seed"),
        ("levy-area", [], {"seed": -1}, "config.seed"),
        ("localize", ["--seed", "-1"], {}, "--seed"),
        ("bridge-test", ["--seed", "-1"], {}, "--seed"),
        ("patodi", ["--seed", "-1"], {}, "--seed"),
        ("selftest", ["--criteria", "2", "--seed", "-1"], {}, "--seed"),
        ("fk", [], {"t": -1}, "config.t"),
        ("fk", ["--t", "0"], {}, "--t"),
        ("phi", [], {"t": -0.5}, "config.t"),
        ("phi", ["--t", "-0.5"], {}, "--t"),
        ("fk", ["--seed", str(SEED_LIMIT)], {}, "--seed"),
        ("fk", [], {"seed": SEED_LIMIT}, "config.seed"),
        ("levy-area", ["--seed", str(SEED_LIMIT)], {}, "--seed"),
        ("levy-area", [], {"seed": SEED_LIMIT}, "config.seed"),
        ("localize", ["--seed", str(SEED_LIMIT)], {}, "--seed"),
        ("localize", ["--paths", "64", "--steps", "8", "--seed", str(SEED_LIMIT)],
         {"chain": TWO_PARTITION_CHAIN}, "--seed"),
        ("bridge-test", ["--seed", str(SEED_LIMIT)], {}, "--seed"),
        ("patodi", ["--seed", str(SEED_LIMIT)], {}, "--seed"),
        ("selftest", ["--criteria", "2", "--seed", str(SEED_LIMIT)], {}, "--seed"),
        ("phi", ["--steps", "8"], {}, "--steps"),
        ("phi", ["--steps", "0"], {}, "--steps"),
        ("phi", ["--nodes", "3"], {}, "--nodes"),
        ("phi", ["--method", "fermionic", "--steps", "8"], {}, "--steps"),
        ("bridge-test", ["--samples", "9"], {}, "9 samples"),
        ("fk", ["--t", "inf"], {}, "--t"),
        ("fk", [], {"t": float("inf")}, "config.t"),
        ("fk", [], {"t": float("nan")}, "config.t"),
        ("phi", ["--t", "nan"], {}, "--t"),
        ("bridge-test", ["--t", "inf"], {}, "--t"),
        ("bridge-test", ["--t", "nan"], {}, "--t"),
        ("jlo", ["--t-grid", "nan,0.8"], {}, "--t-grid"),
        ("localize", ["--t-grid", "nan,0.8"], {}, "--t-grid"),
        ("localize", ["--t-grid", "0.8,inf"], {}, "--t-grid"),
        ("fk", [], {"x": [float("inf")]}, "config.x"),
        ("fk", [], {"y": [float("nan")]}, "config.y"),
        ("fk", [], {"x": [10**400]}, "config.x"),
    ],
)
def test_non_positive_counts_exit_2_without_a_report(
    tmp_path, capsys, command, argv, override, location
):
    """Zero is a count, not a request for the default: it is rejected like
    any other non-positive or non-integer count, from either source.
    localize, jlo, patodi and bridge-test read their counts from the command
    line only; localize's --paths may be 0 (no cross-check) and jlo's
    --truncation 0 (one mode), but neither may be negative.  bridge-test
    needs at least 2 bins, a positive time, and enough samples that two
    bins expect 5 or more counts after pooling.  Every time (--t, config.t,
    each --t-grid entry) must be positive and finite, and fk's points
    finite: a config's Infinity or NaN parses to a float, and 10^400 to an
    int no float holds.  phi needs at least 16 ODE steps and 4 quadrature
    nodes, whichever method runs, and reads both from the command line
    only.  A seed
    may be 0 but not negative, on every command that takes one, and must
    fit in one 64-bit Philox key word, however many streams it keys."""
    base = {"fk": FK_COUNTS_CONFIG, "levy-area": LEVY_COUNTS_CONFIG,
            "localize": LOCALIZE_CHAIN_CONFIG, "jlo": LOCALIZE_CHAIN_CONFIG,
            "phi": PHI_FAMILY_CONFIG}.get(command)
    config = []
    if base is not None:
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({**base, **override}))
        config = ["--config", str(path)]
    out = tmp_path / "report.json"
    assert run_cli([command, *config, "--out", str(out), *argv]) == 2
    assert location in capsys.readouterr().err
    assert not out.exists()


def test_largest_seeds_run(tmp_path):
    """2^64 - 1 keys a Philox stream: fk runs on it, and so do localize's
    Monte Carlo check of two partitions, which draws streams 0 and 1 of
    that seed, and criterion 4, which draws streams 0-8 of it."""
    fk = tmp_path / "fk.json"
    fk.write_text(json.dumps(FK_COUNTS_CONFIG))
    assert run_cli(["fk", "--config", str(fk), "--seed", str(SEED_LIMIT - 1)]) == 0
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({**LOCALIZE_CHAIN_CONFIG, "chain": TWO_PARTITION_CHAIN}))
    out = tmp_path / "report.json"
    argv = ["--paths", "64", "--steps", "8", "--seed", str(SEED_LIMIT - 1)]
    # 8 steps leave an O(h) bias the 3 SE verdict may flag: a report, not a usage error
    assert run_cli(["localize", "--config", str(chain), "--out", str(out), *argv]) in (0, 1)
    assert json.loads(out.read_text())["results"]["mc_check"] is not None
    report = tmp_path / "selftest.json"
    argv = ["--criteria", "4", "--seed", str(SEED_LIMIT - 1), "--out", str(report)]
    assert run_cli(["selftest", *argv]) in (0, 1)  # a verdict, not a traceback
    assert list(json.loads(report.read_text())["results"]) == ["criterion_4"]


def test_localize_zero_paths_means_no_cross_check(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(LOCALIZE_CHAIN_CONFIG))
    out = tmp_path / "report.json"
    assert run_cli(["localize", "--config", str(path), "--out", str(out), "--paths", "0"]) == 0
    assert json.loads(out.read_text())["results"]["mc_check"] is None


def test_jlo_truncation_zero_sums_the_zero_mode(tmp_path):
    """K = 0 is the one-mode truncation k = 0, not a usage error: on the
    chain w0' = e1e2 the zero mode alone contributes -i t."""
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(LOCALIZE_CHAIN_CONFIG))
    out = tmp_path / "report.json"
    code = run_cli(["jlo", "--config", str(path), "--out", str(out), "--truncation", "0"])
    assert code == 1  # one mode is far from the localization target
    rows = json.loads(out.read_text())["results"]["rows"]
    assert [row["value_im"] for row in rows] == pytest.approx([-1.6, -0.8], abs=1e-12)


@pytest.mark.parametrize("command", ["fk", "levy-area"])
def test_command_line_counts_override_the_config(tmp_path, command):
    base = FK_COUNTS_CONFIG if command == "fk" else LEVY_COUNTS_CONFIG
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(base))
    out = tmp_path / "report.json"
    run_cli([command, "--config", str(path), "--out", str(out), "--paths", "40", "--steps", "3"])
    diagnostics = json.loads(out.read_text())["results"]["diagnostics"]
    assert (diagnostics["paths"], diagnostics["steps"]) == (40, 3)


@pytest.mark.parametrize("command", ["fk", "levy-area"])
def test_config_seed_is_honoured(tmp_path, command):
    """The seed is --seed if given, else the config's "seed", else 0."""
    one_form = {"S": [matrix_to_json(np.array([[0.5]], dtype=complex))]}
    base = ({**FK_COUNTS_CONFIG, "perturbations": [one_form]} if command == "fk"
            else LEVY_COUNTS_CONFIG)

    def results(cfg, *argv):
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        assert run_cli([command, "--config", str(path), "--out", str(out), *argv]) in (0, 1)
        return json.loads(out.read_text())["results"]

    unseeded = results(base)
    assert results({**base, "seed": 0}) == unseeded
    assert results({**base, "seed": 7}) == results(base, "--seed", "7") != unseeded
    assert results({**base, "seed": 7}, "--seed", "0") == unseeded


@pytest.mark.parametrize("command", ["phi", "jlo", "ahat"])
def test_unseeded_commands_reject_seed(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_text("{}")
    assert run_cli([command, "--config", str(path), "--seed", "3"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_results_digest_is_recomputable_from_the_report(family_config, tmp_path):
    """results_digest is the SHA-256 of the report's results and verdicts as
    written, so a reader recomputes it from the file alone, by the rule
    docs/formats.md gives.  A --config command echoes the config file's JSON
    value, and a report is one ASCII line even when its config spans lines,
    uses tabs and CRLF or holds characters outside ASCII and the BMP."""
    chain = tmp_path / "chain.json"
    # an indented UTF-8 file with a key no schema reads
    chain.write_text(json.dumps({**LOCALIZE_CHAIN_CONFIG, "note": "\u03a6_t"}, indent=2,
                                ensure_ascii=False), encoding="utf-8")
    levy = tmp_path / "levy.json"
    levy.write_text(json.dumps(LEVY_COUNTS_CONFIG))
    fk = tmp_path / "fk.json"
    fk.write_text(json.dumps(FK_COUNTS_CONFIG))
    omega = tmp_path / "omega.json"
    omega.write_text(json.dumps({k: LEVY_COUNTS_CONFIG[k] for k in ("d", "omega")}) + "\n\n")
    # CRLF line endings, tab indentation and an astral-plane note key
    family = tmp_path / "family_crlf.json"
    family_text = json.dumps({**json.loads(Path(family_config).read_text()),
                              "note \U0001d6f7": "\u03a6_t \U0001d6f7"},
                             indent="\t", ensure_ascii=False)
    family.write_bytes(family_text.replace("\n", "\r\n").encode("utf-8") + b"\r\n")
    runs = [
        ["phi", "--config", family_config],
        ["phi", "--config", str(family), "--method", "ode", "--steps", "64"],
        ["localize", "--config", str(chain), "--paths", "64", "--steps", "8"],
        ["jlo", "--config", str(chain), "--truncation", "2"],
        ["levy-area", "--config", str(levy)],
        ["fk", "--config", str(fk)],
        ["ahat", "--config", str(omega)],
        ["patodi", "--words", "5"],
        ["bridge-test", "--samples", "2000", "--bins", "24"],
        ["selftest", "--criteria", "2"],
    ]
    for argv in runs:
        out = tmp_path / "report.json"
        assert run_cli(argv + ["--out", str(out)]) in (0, 1)
        written = out.read_bytes()
        assert written.isascii() and written.count(b"\n") == 1, argv[0]
        assert written.endswith(b"\n"), argv[0]
        report = json.loads(out.read_text(encoding="utf-8"))
        payload = {"results": report["results"], "verdicts": report["verdicts"]}
        assert acceptance.digest_of(payload) == report["results_digest"], argv[0]
        canonical = json.dumps(payload, sort_keys=True).encode()
        assert hashlib.sha256(canonical).hexdigest() == report["results_digest"], argv[0]
        if argv[1] == "--config":
            config = json.loads(Path(argv[2]).read_text(encoding="utf-8"))
            assert report["config"] == config, argv[0]


def test_report_digest_equals_digest_of_the_payload(tmp_path):
    """The report writer digests the texts it writes; on every kind of value
    a report carries, that equals ``digest_of`` of the same payload."""
    results = {
        "z": 1.5 - 2j,
        "matrix": np.array([[1.0, 2j], [-0.5, 3.25]]),
        "vector": np.arange(3.0),
        "scalars": [np.float64(0.1), np.int64(7), np.bool_(True), np.complex128(1j)],
        "nested": {"b": [1, None], "a": "text"},
    }
    verdicts = {"ok": True, "numpy_ok": np.bool_(False)}
    out = tmp_path / "report.json"
    fields = {"command": "x", "config": {}, "results": results, "verdicts": verdicts}
    text = write_report(fields, str(out))
    assert out.read_text() == text + "\n"
    assert "\n" not in text
    report = json.loads(text)
    assert report["results_digest"] == acceptance.digest_of(
        {"results": results, "verdicts": verdicts}
    )
    assert list(report) == sorted(report)


def test_parser_keeps_no_state_between_calls(family_config, tmp_path):
    """The parser is built once per process; a second call that omits the
    options the first one set gets the defaults."""
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    argv = ["phi", "--config", family_config, "--out"]
    assert run_cli([*argv, str(first), "--method", "ode", "--steps", "64", "--t", "0.3"]) == 0
    assert run_cli([*argv, str(second)]) == 0
    first, second = json.loads(first.read_text()), json.loads(second.read_text())
    assert list(first["results"]) == ["ode"]
    assert first["results"]["ode"]["diagnostics"]["steps"] == 64
    assert sorted(second["results"]) == [
        "fermionic", "ode", "pairwise_relative_deviation", "quadrature"
    ]
    assert second["results"]["ode"]["diagnostics"]["steps"] == 4096
    assert second["results"]["ode"]["t"] == 0.5
    assert cli.build_parser() is cli.build_parser()


def test_cli_runs_leave_scipy_unloaded(family_config, tmp_path):
    """The program imports no SciPy module: importing the CLI and running
    phi, fk (with a potential) and localize (with its Monte Carlo
    cross-check) in one process, reports included, leaves scipy and its
    linalg, sparse, special and stats modules unloaded.  Only the bridge
    chi-squared check imports scipy.stats, when it runs."""
    fk = tmp_path / "fk.json"
    fk.write_text(json.dumps({
        "d": 1, "r": 1, "W": matrix_to_json(np.array([[0.4]], dtype=complex)),
        "t": 0.5, "x": [0.3], "y": [1.0], "paths": 200, "steps": 8, "K": 12,
    }))
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"d": 2, "chain": [
        {"prime": [{"indices": [1], "re": 1.0}]},
        {"doubleprime": [{"indices": [2], "re": 1.0}]},
    ]}))
    runs = [
        ["phi", "--config", family_config, "--method", "all", "--t", "0.5"],
        ["fk", "--config", str(fk)],
        ["localize", "--config", str(chain), "--t-grid", "0.8", "--paths", "64", "--steps", "8"],
    ]
    code = (
        "import sys, opcalc.cli\n"
        f"codes = [opcalc.cli.main(argv + ['--out', {str(tmp_path / 'r.json')!r}]) for argv in {runs!r}]\n"
        "mods = ('scipy', 'scipy.linalg', 'scipy.sparse', 'scipy.special', 'scipy.stats')\n"
        "sys.exit(repr((codes, [m for m in mods if m in sys.modules])))\n"
    )
    src = str(Path(opcalc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=300,
                          capture_output=True, text=True)
    assert proc.stderr.strip().splitlines()[-1] == repr(([0, 0, 0], []))


def test_levy_area_subcommand(tmp_path):
    cfg = {
        "d": 2,
        "omega": [
            [None, [{"indices": [1, 2], "re": 0.9}]],
            [[{"indices": [1, 2], "re": -0.9}], None],
        ],
        "paths": 5000,
        "steps": 64,
    }
    path = tmp_path / "levy.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "levy.json.out"
    assert run_cli(["levy-area", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["within_tolerance"] is True


# antisymmetric, but of degree 1
DEGREE_1_OMEGA = {"d": 2, "omega": [[None, [{"indices": [1], "re": 0.3}]],
                                    [[{"indices": [1], "re": -0.3}], None]]}
# degree 2, but Omega_21 is missing
ONE_SIDED_OMEGA = {"d": 2, "omega": [[None, [{"indices": [1, 2], "re": 0.9}]], [None, None]]}


@pytest.mark.parametrize(
    "command, cfg, location",
    [
        ("levy-area", {"d": 2, "omega": [[None]]}, "config.omega"),
        ("levy-area", {"d": 0, "omega": []}, "config.d"),
        ("ahat", {"d": 2, "omega": [[None], [None]]}, "config.omega"),
        ("levy-area", DEGREE_1_OMEGA, "config.omega[0][1]: curvature entries must be degree-2"),
        ("ahat", DEGREE_1_OMEGA, "config.omega[0][1]: curvature entries must be degree-2"),
        ("levy-area", ONE_SIDED_OMEGA, "config.omega[0][1]: curvature matrix must be antisym"),
        ("ahat", ONE_SIDED_OMEGA, "config.omega[0][1]: curvature matrix must be antisym"),
    ],
)
def test_malformed_curvature_config_exits_2(tmp_path, capsys, monkeypatch, command, cfg,
                                            location):
    """A curvature that is not an antisymmetric matrix of degree-2 forms is
    rejected where the config is read, naming the entry, before any series
    or sampling runs."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran past the config boundary")

    monkeypatch.setattr(acceptance, "levy_against_series", must_not_run)
    monkeypatch.setattr(cli.clifford, "a_hat_series", must_not_run)
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(cfg))
    assert run_cli([command, "--config", str(path)]) == 2
    assert location in capsys.readouterr().err


def d4_chain_config(w1_prime):
    """d = 4: w0' = e1e2 + e3e4/2, w1'' = e3e4 and the given w1'."""
    return {"d": 4, "chain": [
        {"prime": [{"indices": [1, 2], "re": 1.0}, {"indices": [3, 4], "re": 0.5}]},
        {"prime": w1_prime, "doubleprime": [{"indices": [3, 4], "re": 1.0}]},
    ]}


@pytest.mark.parametrize("command", ["localize", "jlo"])
def test_chain_with_a_higher_degree_later_prime_exits_2(tmp_path, capsys, command):
    """The small-time prefactor counts w_j' (j >= 1) as degree 1: on a
    degree-3 w1' the sweep came out exactly (t/2) times the target, with
    relative_error 1.0, so such a chain is rejected as input.  The same
    chain with a degree-1 w1' runs and meets its target."""
    cubic = [{"indices": [1, 2, 3], "re": 1.0}, {"indices": [2, 3, 4], "re": -0.3}]
    linear = [{"indices": [1], "re": 1.0}, {"indices": [4], "re": -0.3}]
    codes = {}
    for name, w1_prime in (("cubic", cubic), ("linear", linear)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(d4_chain_config(w1_prime)))
        out = tmp_path / f"{name}.report.json"
        codes[name] = run_cli([command, "--config", str(path), "--out", str(out)])
        assert out.exists() == (codes[name] != 2)
        if name == "cubic":
            assert "chain.chain[1].prime" in capsys.readouterr().err
    assert codes == {"cubic": 2, "linear": 0}


def test_levy_area_subcommand_d4_uses_doubled_series(tmp_path):
    """The unit-weight estimate is checked against the series at 2 Omega."""
    theta = [{"indices": [1, 2], "re": 0.4}, {"indices": [3, 4], "re": -0.55}]
    minus = [{"indices": [1, 2], "re": -0.4}, {"indices": [3, 4], "re": 0.55}]
    cfg = {
        "d": 4,
        "omega": [
            [None, theta, None, None],
            [minus, None, None, None],
            [None, None, None, None],
            [None, None, None, None],
        ],
        "paths": 20000,
        "steps": 256,
    }
    path = tmp_path / "levy4.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "levy4.json.out"
    assert run_cli(["levy-area", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    # top coefficient of the series at 2 Omega: 4 * 0.4 * (-0.55) / 12
    assert abs(report["results"]["oracle_top"]["re"] - 4 * 0.4 * (-0.55) / 12) < 1e-12


def test_jlo_rows_equal_volume_times_localize_sweep(tmp_path):
    """jlo's whole-torus values are (2 pi)^d times localize's per-point ones.

    jlo truncates at K = 6 and localize at its default K = 14: at t = 1.6
    the dropped modes are below rounding, at t = 0.8 they differ by the
    K = 6 torus tail (~4e-9 relative).
    """
    e1 = [{"indices": [1], "re": 1.0}]
    e2 = [{"indices": [2], "re": 1.0}]
    chains = (
        [{"prime": [{"indices": [1, 2], "re": 1.0}]}],
        [{"prime": e1}, {"doubleprime": e2}],
    )
    volume = (2 * np.pi) ** 2
    for i, chain in enumerate(chains):
        path = tmp_path / f"chain{i}.json"
        path.write_text(json.dumps({"d": 2, "chain": chain}))
        reports = {}
        for route, extra in (("jlo", ["--truncation", "6"]), ("localize", [])):
            out = tmp_path / f"{route}{i}.json"
            argv = [route, "--config", str(path), "--t-grid", "1.6,0.8", "--out", str(out)]
            assert run_cli(argv + extra) == 0
            reports[route] = json.loads(out.read_text())["results"]
        rows = reports["jlo"]["rows"]
        sweep = reports["localize"]["sweep"]
        for row, point, tol in zip(rows, sweep, (1e-12, 1e-8)):
            assert row["t"] == point["t"]
            dense = complex(row["value_re"], row["value_im"])
            per_point = volume * complex(point["value"]["re"], point["value"]["im"])
            assert abs(dense - per_point) <= tol * abs(per_point)


def test_localize_subcommand(tmp_path):
    cfg = {
        "d": 2,
        "chain": [
            {"prime": [{"indices": [1], "re": 1.0}]},
            {"doubleprime": [{"indices": [2], "re": 1.0}]},
        ],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "loc.json"
    code = run_cli(
        ["localize", "--config", str(path), "--t-grid", "0.8,0.4", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["within_2_percent"] is True


def _chain1_config(tmp_path):
    """Criterion 8's chain1: w0' = e1, w1'' = e2."""
    path = tmp_path / "chain1.json"
    path.write_text(json.dumps({"d": 2, "chain": [
        {"prime": [{"indices": [1], "re": 1.0}]},
        {"doubleprime": [{"indices": [2], "re": 1.0}]},
    ]}))
    return str(path)


def test_jlo_extrapolates_along_the_line_through_its_rows(tmp_path):
    """On a grid that does not halve, the extrapolated value is the t = 0
    value of the line through the sweep's two rows."""
    out = tmp_path / "jlo.json"
    assert run_cli(["jlo", "--config", _chain1_config(tmp_path), "--t-grid", "1.6,0.5",
                    "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    (t1, v1), (t2, v2) = (
        (row["t"], complex(row["value_re"], row["value_im"])) for row in results["rows"]
    )
    line = (t1 * v2 - t2 * v1) / (t1 - t2)
    got = complex(results["extrapolated"]["re"], results["extrapolated"]["im"])
    assert abs(got - line) <= 1e-12 * abs(line)


@pytest.mark.parametrize("command", ["jlo", "localize"])
def test_equal_last_grid_times_exit_2(tmp_path, capsys, command):
    """Two equal last times define no line to extrapolate along."""
    assert run_cli([command, "--config", _chain1_config(tmp_path), "--t-grid", "0.8,0.8"]) == 2
    assert "--t-grid" in capsys.readouterr().err


def test_localize_mc_check_uses_the_requested_truncation(tmp_path):
    """The Monte Carlo cross-check's spectral reference runs at --truncation.

    At t = 0.2 the torus-tail guard rejects K = 14 and accepts K = 15, so a
    reference fixed at K = 14 would make the K = 15 run exit 2.
    """
    cfg = {
        "d": 2,
        "chain": [
            {"prime": [{"indices": [1], "re": 1.0}]},
            {"doubleprime": [{"indices": [2], "re": 1.0}]},
        ],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(cfg))
    codes = {}
    for k in (14, 15):
        out = tmp_path / f"loc{k}.json"
        codes[k] = run_cli(
            ["localize", "--config", str(path), "--t-grid", "0.2", "--truncation", str(k),
             "--paths", "64", "--steps", "8", "--out", str(out)]
        )
    assert codes == {14: 2, 15: 0}
    report = json.loads((tmp_path / "loc15.json").read_text())
    mc = report["results"]["mc_check"]
    assert mc["deterministic"] == report["results"]["sweep"][0]["value"]
    assert report["verdicts"]["mc_within_3_stderr"] is True


def test_bridge_test_subcommand(tmp_path):
    out = tmp_path / "bridge.json"
    code = run_cli(
        ["bridge-test", "--samples", "20000", "--bins", "24", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["endpoints_exact"] is True


def test_bridge_test_defaults_report_criterion_12(tmp_path):
    out = tmp_path / "bridge.json"
    assert run_cli(["bridge-test", "--seed", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    details = acceptance.criterion_12(seed=0).details
    assert report["results"]["chi2"] == details["chi2"]
    assert report["results"]["dof"] == details["dof"] == 21


def test_selftest_has_no_workers_option():
    assert run_cli(["selftest", "--criteria", "2", "--workers", "2"]) == 2


def test_selftest_subset_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "self1.json"
    out2 = tmp_path / "self2.json"
    assert run_cli(["selftest", "--criteria", "2,3", "--out", str(out1)]) == 0
    text = capsys.readouterr().out
    assert "criterion  2" in text and "criterion  3" in text
    assert run_cli(["selftest", "--criteria", "2,3", "--out", str(out2)]) == 0
    rep1 = json.loads(out1.read_text())
    rep2 = json.loads(out2.read_text())
    assert rep1["results_digest"] == rep2["results_digest"]


def test_selftest_details_are_numbers(tmp_path):
    out = tmp_path / "self.json"
    assert run_cli(["selftest", "--criteria", "2,3", "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    for criterion in results.values():
        for value in criterion["details"].values():
            assert isinstance(value, (int, float)), value


def test_unknown_criterion_is_usage_error():
    assert run_cli(["selftest", "--criteria", "99"]) == 2
