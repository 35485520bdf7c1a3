"""Command-line interface: exit codes, outputs, manifests, reproducibility."""

import csv
import json
import math
import os

import pytest

from lcltflow import cli

OSC_SYSTEM = {
    "type": "renewal", "D": 2,
    "atoms": [[-1, 0, 2, -1, 1, 3],
              [0, 0, 1, 0, 1, 3],
              [1, 0, -1, 1, 1, 3]],
}

COIN_SYSTEM = {
    "type": "renewal", "D": 2,
    "atoms": [[-1, 0, 1, 0, 1, 2],
              [1, 0, 1, 0, 1, 2]],
}

MARKOV_SYSTEM = {
    "type": "markov",
    "P": [[0.5, 0.5], [0.5, 0.5]],
    "f": [[[-1.0, 1.0], [1.0, 1.0]], [[-1.0, 1.0], [1.0, 1.0]]],
}


def write_cfg(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(tmp_path, command, cfg, *extra):
    path = cfg if isinstance(cfg, str) else write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    return cli.main([command, path, "--out", out, *extra]), out


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_oscillating_system(tmp_path, capsys):
    code, out = run(tmp_path, "classify", {"system": OSC_SYSTEM})
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("Case D")
    assert "flow mixing: yes" in line
    rec = json.loads((tmp_path / "out" / "classify.json").read_text())
    assert rec["case"] == "D"
    assert rec["mixing"] == "Mixing"
    assert rec["covolume"] == pytest.approx(1.0)


def test_classify_degenerate_and_nonmixing(tmp_path, capsys):
    code, _ = run(tmp_path, "classify", {"system": COIN_SYSTEM})
    assert code == 0
    assert "not weakly mixing" in capsys.readouterr().out


def test_classify_markov_points_to_spectral(tmp_path, capsys):
    code, _ = run(tmp_path, "classify", {"system": MARKOV_SYSTEM})
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "spectral" in err and "Traceback" not in err


def test_classify_six_atom_split_matches_three_atom(tmp_path, capsys):
    # each section-6.1 atom split in two: the same law with 5 generators
    split = {"type": "renewal", "D": 2,
             "atoms": [a[:5] + [6] for a in OSC_SYSTEM["atoms"] for _ in "ab"]}
    lines = []
    for system in (OSC_SYSTEM, split):
        code, _ = run(tmp_path, "classify", {"system": system})
        assert code == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1]


def test_classify_explicit_generators(tmp_path):
    cfg = {"generators": [[[0, 1, 0, 1], [1, 1, 0, 1]],
                          [[1, 1, 0, 1], [0, 1, 1, 1]]],
           "shift": [[0, 1, 0, 1], [1, 1, 0, 1]]}
    code, out = run(tmp_path, "classify", cfg)
    assert code == 0
    rec = json.loads((tmp_path / "out" / "classify.json").read_text())
    assert rec["case"] == "D"


# ---------------------------------------------------------------------------
# predict / verify
# ---------------------------------------------------------------------------

SQ2 = math.sqrt(2)

PREDICT_CFG = {
    "case": {"variant": "D", "a": 1, "b": [0, 1, 1, 1], "d": 1},
    "sigma_flow": 1.0,
    "nu_tau": [2, 3],
    "request": {"t": 100, "l": 0, "I": [0.0, SQ2 - 1], "J": [0.0, SQ2 - 1]},
}


def test_predict_writes_record(tmp_path, capsys):
    cfg = dict(PREDICT_CFG)
    cfg["nu_tau"] = 2 / 3
    code, out = run(tmp_path, "predict", cfg)
    assert code == 0
    rec = json.loads((tmp_path / "out" / "predict.json").read_text())
    assert rec["case"] == "D"
    assert rec["value"] == pytest.approx(0.37180643207922826, rel=1e-9)


def test_predict_reads_exact_numbers(tmp_path, capsys):
    # the README example gives nu_tau as [2, 3]; every numeric field takes
    # the exact scalar forms
    exact = dict(PREDICT_CFG, sigma_flow=[1, 1],
                 request={"t": [200, 2], "l": [0, 1], "I": [0, [-1, 1, 1, 1]],
                          "J": [0, [-1, 1, 1, 1]]})
    for cfg in (PREDICT_CFG, exact):
        code, out = run(tmp_path, "predict", cfg)
        assert code == 0
        rec = json.loads((tmp_path / "out" / "predict.json").read_text())
        assert rec["value"] == pytest.approx(0.37180643207922826, rel=1e-9)


def test_verify_lattice_passes(tmp_path, capsys):
    cfg = dict(PREDICT_CFG)
    cfg.update({"mode": "lattice", "system": OSC_SYSTEM,
                "t": 100, "N": 200_000, "nu_tau": 2 / 3})
    code, out = run(tmp_path, "verify", cfg)
    text = capsys.readouterr().out
    assert code == 0, text
    assert "PASS" in text
    assert os.path.exists(os.path.join(out, "verify.csv"))


def _lattice_verify(tmp_path, **request):
    cfg = dict(PREDICT_CFG, mode="lattice", system=OSC_SYSTEM, t=100,
               N=200_000, nu_tau=2 / 3,
               request=dict(PREDICT_CFG["request"], **request))
    code, out = run(tmp_path, "verify", cfg)
    with open(os.path.join(out, "verify.csv")) as fh:
        return code, fh.read().splitlines()[1].split(",")


def test_verify_lattice_checks_the_section_value_W_plus_l_a(tmp_path):
    # W = 1, l = -1 names the same section value 0 as W = 0, l = 0: the
    # prediction, the Monte Carlo window and the oracle all agree on it
    code0, row0 = _lattice_verify(tmp_path, W=0, l=0)
    code1, row1 = _lattice_verify(tmp_path, W=1, l=-1)
    assert code0 == code1 == 0
    assert row1[1:] == row0[1:]


def test_verify_lattice_zero_hit_estimate_passes(tmp_path):
    # l = 1: no path hits, and the oracle is the ~1e-15 mass of the sliver
    # between the float bound of I and sqrt2 - 1; the zero-hit estimate has
    # the standard error of one hit, so the two agree within 3 SE
    code, row = _lattice_verify(tmp_path, l=1)
    assert code == 0, row
    assert float(row[2]) == 0.0 and float(row[3]) > 1e-6


def _bench_lattice_cfg(N):
    """The benchmark's lattice config with N sample paths."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "perfbench", "configs",
                        "lattice_verify.json")
    with open(path) as fh:
        return dict(json.load(fh), N=N)


def test_verify_lattice_reads_t_from_the_request(tmp_path):
    # the benchmark's lattice config, with and without its top-level t
    # (N cut to 2^16 paths: the comparison is between the two runs)
    cfg = _bench_lattice_cfg(1 << 16)
    csvs = []
    for c in (cfg, {k: v for k, v in cfg.items() if k != "t"}):
        code, out = run(tmp_path, "verify", c)
        assert code == 0
        with open(os.path.join(out, "verify.csv"), "rb") as fh:
            csvs.append(fh.read())
    assert csvs[0] == csvs[1]


def test_verify_lattice_case_E_targets_its_sheared_a(tmp_path):
    # E(a' = 2, b' = sqrt2 - 1, c' = 0, d' = 1) is its own shear-reduced D
    # label D(2, sqrt2 - 1, 1): both target the section value l a = 2
    cfg = _bench_lattice_cfg(1 << 14)
    cfg["request"] = dict(cfg["request"], l=1)
    b = [-1, 1, 1, 1]
    rows = []
    for case in ({"variant": "E", "a_p": 2, "b_p": b, "c_p": 0, "d_p": 1},
                 {"variant": "D", "a": 2, "b": b, "d": 1}):
        run(tmp_path, "verify", dict(cfg, case=case))
        with open(os.path.join(tmp_path, "out", "verify.csv")) as fh:
            rows.append(fh.read().splitlines()[1].split(","))
    assert rows[0] == rows[1]


def test_verify_negative_control_fails(tmp_path, capsys):
    # deliberately wrong variance: prediction is off by sqrt(2), the check
    # must FAIL with exit code 4
    cfg = dict(PREDICT_CFG)
    cfg.update({"mode": "lattice", "system": OSC_SYSTEM,
                "t": 100, "N": 200_000, "nu_tau": 2 / 3,
                "sigma_flow": 2.0})
    code, out = run(tmp_path, "verify", cfg)
    text = capsys.readouterr().out
    assert code == 4, text
    assert "FAIL" in text


def test_verify_flow_mode(tmp_path, capsys):
    cfg = {"system": MARKOV_SYSTEM, "mode": "flow", "t": 200, "N": 200_000,
           "sigma_flow": 1.0, "windows": [[0.0, -1.0, 1.0]]}
    code, _ = run(tmp_path, "verify", cfg)
    assert code == 0, capsys.readouterr().out


def test_verify_flow_mode_predicts_with_predict(tmp_path):
    # every flow window is checked against predict's case-A value
    from lcltflow.groups import CaseLabel, interval
    from lcltflow.predict import FlowMLCLTParams, PredictionRequest, predict
    from lcltflow.systems import load_system

    sigma, t = 1.7, 20
    windows = [[0.0, -0.5, 0.5], [1.3, -0.25, 1.0], [-2.0, 0.1, 0.35]]
    cfg = {"system": MARKOV_SYSTEM, "mode": "flow", "t": t, "N": 4096,
           "sigma_flow": sigma, "windows": windows}
    code, out = run(tmp_path, "verify", cfg)
    assert code in (0, 4)
    with open(os.path.join(out, "verify.csv")) as fh:
        rows = list(csv.DictReader(fh))
    params = FlowMLCLTParams(CaseLabel("A"), sigma,
                             load_system(MARKOV_SYSTEM).nu_tau)
    assert len(rows) == len(windows)
    for (w, lo, hi), row in zip(windows, rows):
        assert float(row["predicted"]) == predict(params, PredictionRequest(
            t=t, w=w, target=[interval(lo, hi)]))


# ---------------------------------------------------------------------------
# simulate / spectral / renewal / correlate
# ---------------------------------------------------------------------------

def test_simulate_writes_json(tmp_path, capsys):
    cfg = {"system": OSC_SYSTEM, "t": 25, "N": 50_000,
           "windows": [["section", 1, 0], ["flow", 0.0, -0.5, 0.5]]}
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 0
    recs = json.loads((tmp_path / "out" / "simulate.json").read_text())
    assert [r["window"] for r in recs] == [["section", 1.0, 0],
                                           ["flow", 0.0, -0.5, 0.5]]
    assert set(recs[0]) == {"window", "point", "std_error", "n_samples",
                            "seed"}


def test_spectral_curve(tmp_path):
    cfg = {"system": MARKOV_SYSTEM, "components": [0],
           "t_grid": [0.0, 0.5, 1.0]}
    code, out = run(tmp_path, "spectral", cfg)
    assert code == 0
    lines = (tmp_path / "out" / "eigen_curve.csv").read_text().splitlines()
    assert lines[0] == "t0,re_lambda,im_lambda,abs_lambda,gap"
    row = [float(v) for v in lines[2].split(",")]
    assert row[1] == pytest.approx(math.cos(0.5), abs=1e-12)


def test_renewal_scan(tmp_path, capsys):
    cfg = {"t_values": [20.2, 20.5, 20.9]}
    code, out = run(tmp_path, "renewal", cfg)
    assert code == 0
    lines = (tmp_path / "out" / "scan.csv").read_text().splitlines()
    assert lines[0] == "t,frac_cell,sqrt_t_times_p,pruned_mass"
    assert len(lines) == 4


def test_renewal_t_values_are_read_exactly(tmp_path):
    from fractions import Fraction
    from lcltflow.quadfield import QuadScalar
    from lcltflow.renewal_exact import counterexample_scan, scan_csv_rows

    def csv(ts):
        return "\n".join(scan_csv_rows(counterexample_scan(ts))) + "\n"

    # a float is its shortest decimal; [1, 1, 1, 1] is exactly 1 + sqrt2
    cfg = {"t_values": [2.4142135623730951, [1, 1, 1, 1], 50.2, 3]}
    code, out = run(tmp_path, "renewal", cfg)
    assert code == 0
    assert (tmp_path / "out" / "scan.csv").read_text() == csv(
        [Fraction("2.414213562373095"), 1 + QuadScalar.sqrtD(2),
         Fraction(251, 5), 3])
    cells = [line.split(",")[1] for line in
             (tmp_path / "out" / "scan.csv").read_text().splitlines()[1:3]]
    assert cells == ["0", "1"]


def test_renewal_scan_rejects_non_integer_rewards(tmp_path, capsys):
    # the +-1/2 coin: rewards reach the exact scan unchanged and are rejected
    half_coin = {"type": "renewal", "D": 2,
                 "atoms": [[-0.5, 0, 1, 0, 1, 2], [0.5, 0, 1, 0, 1, 2]]}
    code, _ = run(tmp_path, "renewal",
                  {"system": half_coin, "t_values": [10]})
    assert code == 3
    assert "rewards must be integers" in capsys.readouterr().err


def test_renewal_scan_rejects_off_lattice_zero_rewards(tmp_path, capsys):
    # durations 1 and sqrt2: S = 0 recurs at times off the integer lattice
    sys = {"type": "renewal", "D": 2,
           "atoms": [[-1, 0, 1, 0, 1, 2], [1, 0, 0, 1, 1, 2]]}
    code, _ = run(tmp_path, "renewal", {"system": sys, "t_values": [5]})
    assert code == 3
    err = capsys.readouterr().err
    assert "non-integer time" in err and "Traceback" not in err


def test_correlate(tmp_path):
    cfg = {"system": COIN_SYSTEM, "t_grid": [2.0, 2.5], "N": 20_000,
           "band_delta": 0.3}
    code, out = run(tmp_path, "correlate", cfg)
    assert code == 0
    lines = (tmp_path / "out" / "correlation.csv").read_text().splitlines()
    assert lines[0] == "t,correlation,std_error"
    # integer-roof coin at integer time: band fully correlated
    t, c, se = (float(v) for v in lines[1].split(","))
    assert c == pytest.approx(0.3 - 0.09, abs=0.02)


# ---------------------------------------------------------------------------
# exit codes and manifests
# ---------------------------------------------------------------------------

def test_bad_json_is_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert cli.main(["classify", str(p)]) == 2


def test_missing_file_is_parse_error(tmp_path):
    assert cli.main(["classify", str(tmp_path / "nope.json")]) == 2


def test_missing_key_is_parse_error(tmp_path):
    code, _ = run(tmp_path, "simulate", {"system": OSC_SYSTEM})
    assert code == 2


@pytest.mark.parametrize("command, cfg", [
    ("simulate", {"system": "missing.json", "t": 2, "N": 10,
                  "windows": [["flow", 0, -1, 1]]}),
    ("simulate", {"system": [1, 2], "t": 2, "N": 10,
                  "windows": [["flow", 0, -1, 1]]}),
    ("simulate", {"system": OSC_SYSTEM, "t": 2, "N": 10,
                  "windows": [["flow", 0, -1]]}),
    ("verify", {"system": OSC_SYSTEM, "t": 2, "N": 10, "sigma_flow": 1.0,
                "windows": []}),
    ("renewal", {"t_values": ["x"]}),
    ("renewal", {"t_values": [True]}),
    ("renewal", {"system": MARKOV_SYSTEM, "t_values": [2]}),
    ("spectral", {"system": OSC_SYSTEM}),
    ("spectral", {"system": {"type": "pm", "alpha": 0.25}}),
    ("predict", dict(PREDICT_CFG, nu_tau=2 / 3,
                     case={"variant": "D", "b": 0, "d": 1})),
    ("predict", dict(PREDICT_CFG, nu_tau=2 / 3, request=None)),
    ("simulate", {"system": OSC_SYSTEM, "t": 2, "N": "x",
                  "windows": [["flow", 0, -1, 1]]}),
    ("simulate", {"system": OSC_SYSTEM, "t": 2, "N": 2.5,
                  "windows": [["flow", 0, -1, 1]]}),
    ("simulate", {"system": {"type": "nope"}, "t": 2, "N": 10,
                  "windows": [["flow", 0, -1, 1]]}),
    ("spectral", {"system": MARKOV_SYSTEM, "t_grid": [0.0, 0.5]}),
    ("predict", dict(PREDICT_CFG, request={"t": 100, "l": 0.5})),
    ("verify", dict(PREDICT_CFG, mode="lattice", system=OSC_SYSTEM, t=50,
                    N=1000, nu_tau=2 / 3)),
    ("simulate", {"system": OSC_SYSTEM, "t": 2, "N": 0,
                  "windows": [["flow", 0, -1, 1]]}),
    ("verify", {"system": OSC_SYSTEM, "t": 2, "N": -3, "sigma_flow": 1.0,
                "windows": [[0, -1, 1]]}),
    ("correlate", {"system": OSC_SYSTEM, "t_grid": [1.0], "N": 0}),
    ("verify", {"system": OSC_SYSTEM, "N": 10, "sigma_flow": 1.0,
                "windows": [[0, -1, 1]]}),
    ("verify", {"system": MARKOV_SYSTEM, "t": 2, "N": 10, "sigma_flow": 1.0,
                "windows": [[0, 0.5, -0.5]]}),
    ("simulate", {"system": MARKOV_SYSTEM, "t": 2, "N": 10,
                  "windows": [["flow", 0, 0.5, -0.5]]}),
])
def test_malformed_config_is_parse_error(tmp_path, capsys, command, cfg):
    code, _ = run(tmp_path, command, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_unknown_command_is_parse_error(tmp_path):
    cfg = write_cfg(tmp_path, {})
    assert cli.main(["frobnicate", cfg]) == 2


@pytest.mark.parametrize("b", [1.4142135623730951, 0.5, "x", [1, 0], [1, 2, 3],
                               [0, 1, 1, 0]])
def test_inexact_or_malformed_scalar_is_parse_error(tmp_path, capsys, b):
    # a float is never rationalised: sqrt(2) as a float would otherwise
    # classify as a rational (degenerate) generator set
    code, _ = run(tmp_path, "classify", {"generators": [[0, 1], [1, b]]})
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "[num, den]" in err and "Traceback" not in err


def test_integer_and_pair_scalars_classify(tmp_path, capsys):
    cfg = {"generators": [[0, 1.0], [1, [0, 1, 1, 1]], [1, [1, 1, 1, 1]]],
           "shift": [0, [0, 3]]}
    code, _ = run(tmp_path, "classify", cfg)
    assert code == 0
    assert capsys.readouterr().out.strip() == (
        "Case D, a=1, b=0.41421356237309515, d=1, covolume=1, "
        "flow mixing: yes")


def test_math_domain_error(tmp_path):
    # rewards with nonzero mean: a domain error, not a config parse error
    bad = {"type": "renewal", "D": 2,
           "atoms": [[1, 0, 1, 0, 1, 2], [2, 0, 1, 0, 1, 2]]}
    code, _ = run(tmp_path, "classify", {"system": bad})
    assert code == 3


def test_manifest_written_and_reruns_identical(tmp_path):
    cfg = {"system": OSC_SYSTEM, "t": 25, "N": 50_000,
           "windows": [["section", 1, 0]]}
    path = write_cfg(tmp_path, cfg)
    out1 = str(tmp_path / "o1")
    out2 = str(tmp_path / "o2")
    assert cli.main(["simulate", path, "--out", out1]) == 0
    assert cli.main(["simulate", path, "--out", out2, "--workers", "4"]) == 0
    m1 = json.loads((tmp_path / "o1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "o2" / "manifest.json").read_text())
    assert m1["command"] == "simulate"
    assert m1["seed"] == cli.DEFAULT_SEED
    assert m1["config_hash"] == m2["config_hash"]
    # identical seeds and configs give byte-identical outputs regardless of
    # worker count
    assert m1["outputs"] == m2["outputs"]
    body = (tmp_path / "o1" / "simulate.json").read_text()
    import hashlib
    assert hashlib.sha256(body.encode()).hexdigest() == \
        m1["outputs"]["simulate.json"]


def test_lattice_verify_identical_across_worker_counts(tmp_path):
    # the benchmark's lattice config over two path blocks
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "configs", "lattice_verify.json")
    with open(path) as fh:
        cfg = json.load(fh)
    cfg["N"] = (1 << 18) + 300
    path = write_cfg(tmp_path, cfg)
    bodies = []
    for workers in ("1", "2"):
        out = str(tmp_path / f"w{workers}")
        assert cli.main(["verify", path, "--out", out, "--seed", "3",
                         "--workers", workers]) == 0
        bodies.append((tmp_path / f"w{workers}" / "verify.csv").read_bytes())
    assert bodies[0] == bodies[1]


def test_no_stray_tempfiles(tmp_path):
    cfg = {"t_values": [10.5]}
    code, out = run(tmp_path, "renewal", cfg)
    assert code == 0
    assert not [f for f in os.listdir(out) if f.startswith(".tmp-")]
