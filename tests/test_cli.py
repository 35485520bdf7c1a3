"""Command-line interface: exit codes, outputs, manifests, reproducibility."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from lcltflow import cli, config
from lcltflow.montecarlo import BLOCK_SIZE

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


@pytest.mark.parametrize("command, system", [
    ("classify", {**MARKOV_SYSTEM, "P": [[0.5, 0.6], [0.5, 0.5]]}),
    ("classify", {"type": "pm", "alpha": 0.7}),
    ("spectral", {"type": "pm", "alpha": 0.25}),
    ("spectral", OSC_SYSTEM)], ids=["markov-rows", "pm-alpha", "pm", "renewal"])
def test_a_system_of_the_wrong_kind_exits_2_before_it_is_built(
        tmp_path, capsys, monkeypatch, command, system):
    # once the system was built first: rows that do not sum to 1, or an
    # alpha outside (0, 1/2), exited 3, and a PM tower was built to be
    # refused
    from lcltflow import systems

    def build(*args, **kwargs):
        raise AssertionError("a system was built")
    for cls in systems._SYSTEM_TYPES.values():
        monkeypatch.setattr(cls, "__init__", build)
    assert run(tmp_path, command, {"system": system})[0] == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"{command} needs a " in err and "spectral takes a markov" in err


@pytest.mark.parametrize("atoms, words", [
    (OSC_SYSTEM["atoms"][:2] + [[0, 0, 1, 0, 1]],
     "not enough values to unpack"),
    (OSC_SYSTEM["atoms"][:2] + [[0, 0, 1, 0, 1, 0]], "Fraction(1, 0)"),
    ([["-1", 0, 1, 0, "1/2", 1], [1, 0, 1, 0, 1, 2]], "JSON numbers"),
    ([[-1, 0, 1, 0, True, 2], [1, 0, 1, 0, 1, 2]], "JSON numbers"),
    ([[-1, 0, 1, None, 1, 2], [1, 0, 1, 0, 1, 2]], "JSON numbers")],
    ids=["five-entries", "zero-denominator", "strings", "bool", "null"])
def test_malformed_renewal_atom_exits_2(tmp_path, capsys, atoms, words):
    system = dict(OSC_SYSTEM, atoms=atoms)
    assert run(tmp_path, "classify", {"system": system})[0] == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: ") and words in err


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


def test_classify_reads_float_durations_as_decimals(tmp_path):
    # durations 0.1 and 0.3 differ by exactly 1/5, not by the difference of
    # their binary values
    system = {"type": "renewal", "D": 2,
              "atoms": [[-1, 0, 0.1, 0, 1, 2], [1, 0, 0.3, 0, 1, 2]]}
    code, _ = run(tmp_path, "classify", {"system": system})
    assert code == 0
    rec = json.loads((tmp_path / "out" / "classify.json").read_text())
    assert rec["group"]["lattice_basis"] == [[[[2, 1], [0, 1]],
                                              [[1, 5], [0, 1]]]]


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


def test_predict_lattice_count_that_overflows_is_math_error(tmp_path,
                                                            capsys):
    # a finite target whose count on 1/2 Z overflows a float: one error line
    # naming the overflow, not a bare "cannot convert float infinity"
    cfg = dict(PREDICT_CFG, case={"variant": "B", "a": [1, 2]},
               request={"t": 100, "target": [-1e308, 1e308]})
    assert run(tmp_path, "predict", cfg)[0] == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: the points of the lattice 0.5Z in")
    assert err.rstrip().endswith("overflow a float")


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


def test_predict_cuts_the_start_interval_at_zero(tmp_path, capsys):
    # start heights are nonnegative, so I = [-1, 0.3) is the event of
    # [0, 0.3), as in Monte Carlo and the exact oracle
    values = []
    for lo in (-1, 0):
        cfg = dict(PREDICT_CFG,
                   request=dict(PREDICT_CFG["request"], I=[lo, 0.3]))
        code, _ = run(tmp_path, "predict", cfg)
        assert code == 0
        rec = json.loads((tmp_path / "out" / "predict.json").read_text())
        values.append(rec["value"])
    assert values[0] == values[1]
    assert values[1] == pytest.approx(0.269286, abs=1e-6)


@pytest.mark.parametrize("command", ["predict", "verify"])
def test_off_lattice_W_exits_3_in_predict_and_verify(tmp_path, capsys,
                                                      command):
    # both commands read the request's W exactly, and 1e-12 is off the
    # lattice Z of the benchmark's D label
    cfg = _bench_lattice_cfg(1 << 10, command)
    cfg["request"] = dict(cfg["request"], W=1e-12)
    code, _ = run(tmp_path, command, cfg)
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "not on the admissible lattice" in err and "Traceback" not in err


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


def _bench_lattice_cfg(N, command="verify"):
    """The benchmark's lattice config with N sample paths, or for predict
    the keys of it that predict reads."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "perfbench", "configs",
                        "lattice_verify.json")
    with open(path) as fh:
        cfg = dict(json.load(fh), N=N)
    if command == "predict":
        cfg = {k: cfg[k] for k in config.COMMANDS["predict"].table if k in cfg}
    return cfg


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


@pytest.mark.parametrize("where, key, value", [
    ("request", "w", 1), ("request", "nu_A", 0.5), ("request", "nu_B", 3),
    ("config", "nu_tau", [2, 3])])
def test_verify_lattice_reads_only_its_event(tmp_path, capsys, where, key,
                                             value):
    # Monte Carlo and the oracle never read the request's w, nu_A or nu_B,
    # so lattice verify's request does not declare them, and one given
    # exits 2 naming it (it once exited 0, read by nothing); a config's
    # nu_tau only has to agree with the system's
    cfg = _bench_lattice_cfg(1 << 14)
    changed = json.loads(json.dumps(cfg))
    (changed if where == "config" else changed["request"])[key] = value
    if where == "request":
        assert run(tmp_path, "verify", changed)[0] == 2
        assert capsys.readouterr().err == (
            f"error: unknown key the request's {key}; known keys: t, W, l, "
            f"I, J\n")
        assert not (tmp_path / "out").exists()
        return
    csvs = []
    for c in (cfg, changed):
        code, out = run(tmp_path, "verify", c)
        assert code == 0
        csvs.append((tmp_path / "out" / "verify.csv").read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("nu_tau", [5.0, 2 / 3 * (1 + 1e-8)])
def test_verify_rejects_a_nu_tau_that_is_not_the_systems(tmp_path, capsys,
                                                         nu_tau):
    code, _ = run(tmp_path, "verify", dict(_bench_lattice_cfg(16),
                                           nu_tau=nu_tau))
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert f"nu_tau = {nu_tau!r}" in err
    assert f"nu_tau = {2 / 3!r}" in err


@pytest.mark.parametrize("key", ["I", "J"])
@pytest.mark.parametrize("command", ["predict", "verify"])
def test_case_D_without_a_fiber_interval_names_it(tmp_path, capsys, command,
                                                  key):
    # both once exited 3 with "cases D/E require fiber intervals I and J"
    cfg = _bench_lattice_cfg(16, command)
    del cfg["request"][key]
    assert run(tmp_path, command, cfg)[0] == 2
    assert capsys.readouterr().err == (
        f"error: the request's {key} is required for a case D label\n")


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
def test_tolerance_scale_must_be_finite_and_positive(tmp_path, capsys,
                                                     scale):
    # inf once passed every check with exit 0; nan, 0 and -1 failed every
    # row with exit 4
    code, _ = run(tmp_path, "verify", _bench_lattice_cfg(16),
                  "--tolerance-scale", scale)
    assert code == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        f"lcltflow: error: argument --tolerance-scale: must be finite and "
        f"positive, not {scale}")


def test_small_tolerance_scale_is_accepted():
    # the benchmark's self-test runs verify at 0.001
    args = cli.build_parser().parse_args(
        ["verify", "cfg.json", "--tolerance-scale", "0.001"])
    assert args.tolerance_scale == 0.001


@pytest.mark.parametrize("case", [{"variant": "A"}, {"variant": "B", "a": 1}])
def test_verify_lattice_needs_a_D_or_E_label(tmp_path, capsys, case):
    code, _ = run(tmp_path, "verify", dict(_bench_lattice_cfg(16), case=case))
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "case D or E" in err and "Traceback" not in err


def test_verify_lattice_hands_the_oracle_the_exact_event(tmp_path,
                                                          monkeypatch):
    from fractions import Fraction
    from lcltflow import renewal_exact
    from lcltflow.quadfield import QuadScalar

    seen = []
    real = renewal_exact.stationary_event_probability

    def spy(atoms, t, v, I=None, J=None):
        seen.append((t, v, I, J))
        return real(atoms, t, v, I=I, J=J)

    monkeypatch.setattr(renewal_exact, "stationary_event_probability", spy)
    sq = [0, [-1, 1, 1, 1]]
    cfg = _bench_lattice_cfg(1 << 12)
    for request in ({"t": [200, 2], "W": 1, "l": -1, "I": sq, "J": sq},
                    {"t": 100.0, "I": [0.0, 0.41421356237309515],
                     "J": [0, 0.5]}):
        run(tmp_path, "verify", dict(cfg, request=request))
    (t0, v0, I0, J0), (t1, v1, I1, J1) = seen
    assert all(isinstance(x, QuadScalar)
               for x in (t0, v0, t1, v1, *I0, *J0, *I1, *J1))
    # I = J = [0, sqrt2 - 1] exactly; W + l a = 1 - 1 = 0
    r = QuadScalar(-1, 1, 2)
    assert (t0, v0, I0, J0) == (100, 0, (0, r), (0, r))
    # a float is its shortest decimal
    assert (t1, v1) == (100, 0)
    assert I1 == (0, Fraction("0.41421356237309515"))
    assert J1 == (0, Fraction(1, 2))


def _lattice_prediction(cfg, sigma, **request):
    """predict's value for the benchmark's D label at ``request``."""
    from lcltflow.groups import CaseLabel
    from lcltflow.predict import FlowMLCLTParams, PredictionRequest, predict
    from lcltflow.quadfield import QuadScalar
    from lcltflow.systems import load_system

    case = CaseLabel("D", a=1, b=QuadScalar.sqrtD(2), d=1)
    nu = load_system(cfg["system"]).nu_tau
    return predict(FlowMLCLTParams(case, sigma(nu), nu),
                   PredictionRequest(**request))


def _verify_row(tmp_path, cfg):
    code, out = run(tmp_path, "verify", cfg)
    assert code in (0, 4)
    with open(os.path.join(out, "verify.csv")) as fh:
        return next(csv.DictReader(fh))


def test_verify_lattice_predicts_at_w_v_over_sqrt_t(tmp_path):
    # W = 1, l = 1: section value v = 2, so the Gaussian is read at
    # w = 2 / sqrt(100)
    cfg = _bench_lattice_cfg(1 << 12)
    event = {"t": 100, "W_of_t": 1, "l": 1, "I": (0, 1), "J": (0, 1)}
    cfg["request"] = {"t": 100, "W": 1, "l": 1, "I": [0, 1], "J": [0, 1]}
    row = _verify_row(tmp_path, cfg)
    expected = _lattice_prediction(cfg, lambda nu: 1.0, w=0.2, **event)
    assert float(row["predicted"]) == expected
    assert expected != _lattice_prediction(cfg, lambda nu: 1.0, **event)


def test_verify_lattice_oracle_takes_half_integer_rewards(tmp_path, capsys):
    # section 6.1 with rewards -1/2, 0, 1/2: classify says D(a = 1/2,
    # b = sqrt2 - 1, d = 1) and sigma_flow is 1/4.  The event at v = 0 is
    # section 6.1's, so the oracle is lattice-verify's; it exited 3 with
    # "rewards must be integers" once its Monte Carlo had run
    cfg = _bench_lattice_cfg(1 << 12)
    half = json.loads(json.dumps(cfg))
    for row in half["system"]["atoms"]:
        row[0] /= 2
    half.update(case=dict(cfg["case"], a=[1, 2]), sigma_flow=0.25)
    rows = []
    for c in (cfg, half):
        row = _verify_row(tmp_path, c)
        assert row["status"] == "PASS"
        rows.append(row)
    assert "oracle 0.371459" in capsys.readouterr().out
    assert rows[0]["oracle"] == rows[1]["oracle"] != ""


def test_verify_lattice_rewards_off_the_rationals_exit_before_any_path(
        tmp_path, capsys, monkeypatch):
    # rewards -+sqrt2 cannot be scaled to the oracle's integers: exit 3
    # from the oracle's checks, before Monte Carlo draws a path
    from lcltflow import montecarlo

    def fail(*args, **kwargs):
        pytest.fail("Monte Carlo ran before the oracle's checks")

    monkeypatch.setattr(montecarlo, "estimate_lclt", fail)
    cfg = _bench_lattice_cfg(1 << 12)
    cfg["system"] = {"type": "renewal", "D": 2,
                     "atoms": [[0, -1, 1, 0, 1, 2], [0, 1, 1, 0, 1, 2]]}
    del cfg["sigma_flow"], cfg["nu_tau"]
    code, _ = run(tmp_path, "verify", cfg)
    assert code == 3
    err = capsys.readouterr().err
    assert "rewards must be integers" in err and "Traceback" not in err


def _forbid_estimate_sigma(monkeypatch):
    """Fail the test if verify estimates Sigma by batch means."""
    from lcltflow import montecarlo

    def fail(*args, **kwargs):
        pytest.fail("estimate_sigma was called")

    monkeypatch.setattr(montecarlo, "estimate_sigma", fail)


def test_verify_lattice_without_sigma_flow_uses_the_system_sigma(
        tmp_path, monkeypatch):
    from lcltflow.systems import load_system

    _forbid_estimate_sigma(monkeypatch)
    cfg = _bench_lattice_cfg(1 << 12)
    del cfg["sigma_flow"]
    row = _verify_row(tmp_path, cfg)
    var = load_system(cfg["system"]).sigma()[0, 0]
    I = tuple(cfg["request"]["I"])
    assert float(row["predicted"]) == _lattice_prediction(
        cfg, lambda nu: var / nu, t=100, I=I, J=I)


def _bench_flow_cfg(N):
    """The benchmark's Markov flow config with N sample paths."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "perfbench", "configs",
                        "markov_flow_verify.json")
    with open(path) as fh:
        return dict(json.load(fh), N=N)


# criterion 4's durations 1, sqrt 2, sqrt 3 as decimals: one ring, so Sigma
# is exact, and flow windows of width 1 see a Gaussian
DECIMAL_C4_SYSTEM = {
    "type": "renewal",
    "atoms": [[-1, 0, 1, 0, 1, 3], [0, 0, 1.4142135623730951, 0, 1, 3],
              [1, 0, 1.7320508075688772, 0, 1, 3]],
}

# section 6.1 as a Markov shift: identical rows of P, and f(i, j) the atom j
SECTION_61_CHAIN = {
    "type": "markov",
    "P": [[1 / 3] * 3] * 3,
    "f": [[[-1.0, 2 - SQ2], [0.0, 1.0], [1.0, SQ2 - 1]]] * 3,
}


@pytest.mark.parametrize("cfg", [
    _bench_flow_cfg(1 << 16),
    {"system": DECIMAL_C4_SYSTEM, "mode": "flow", "t": 100, "N": 1 << 16,
     "windows": [[0, -0.5, 0.5], [1, -0.5, 0.5]]},
    {k: v for k, v in _bench_lattice_cfg(1 << 16).items()
     if k != "sigma_flow"},
    {k: v for k, v in _bench_lattice_cfg(1 << 16).items()
     if k != "sigma_flow"} | {"system": SECTION_61_CHAIN},
], ids=["markov-flow", "renewal-flow", "renewal-lattice", "markov-lattice"])
def test_verify_without_sigma_flow_passes_on_the_exact_sigma(
        tmp_path, monkeypatch, capsys, cfg):
    # renewal and Markov systems give Sigma in closed form: no batch means
    _forbid_estimate_sigma(monkeypatch)
    code, _ = run(tmp_path, "verify", cfg)
    assert code == 0, capsys.readouterr().out


@pytest.mark.parametrize("shift", ["constant", "roof"])
def test_verify_centres_a_markov_flow_whose_phi_has_a_mean(tmp_path, capsys,
                                                           shift):
    # phi + 0.1 or phi + 0.1 tau: the flow integral drifts at c = nu(phi) /
    # nu(tau), so the windows sit at t c and Sigma_flow is the variance of
    # phi - c tau.  phi + 0.1 tau moves the flow integral by exactly 0.1 t,
    # so its Sigma_flow is that of phi.
    from lcltflow.systems import load_system

    cfg = _bench_flow_cfg(1 << 16)
    for row in cfg["system"]["f"]:
        for edge in row:
            edge[0] += 0.1 if shift == "constant" else 0.1 * edge[1]
    code, out = run(tmp_path, "verify", cfg, "--seed", "1")
    assert code == 0, capsys.readouterr().out
    system = load_system(cfg["system"])
    c = system.nu_phi / system.nu_tau
    assert c > 0.05
    cov = system.sigma()
    var = (cov[0, 0] - 2 * c * cov[0, 1] + c * c * cov[1, 1]) / system.nu_tau
    if shift == "roof":
        plain = load_system(_bench_flow_cfg(1 << 16)["system"])
        assert var == pytest.approx(plain.sigma()[0, 0] / plain.nu_tau,
                                    rel=1e-9)
    with open(os.path.join(out, "verify.csv")) as fh:
        row = next(csv.DictReader(fh))
    assert float(row["predicted"]) == pytest.approx(
        1 / math.sqrt(2 * math.pi * var), rel=1e-12)


def test_verify_pm_without_sigma_flow_estimates_sigma(tmp_path, monkeypatch):
    import numpy as np
    from lcltflow import montecarlo

    calls = []

    def fake_sigma(system, seed, workers):
        calls.append((system.kind, seed))
        return np.array([[0.4, 0.0], [0.0, 1.0]]), None

    monkeypatch.setattr(montecarlo, "estimate_sigma", fake_sigma)
    cfg = {"system": {"type": "pm", "alpha": 0.25}, "mode": "flow", "t": 20,
           "N": 1024, "windows": [[0, -0.5, 0.5]]}
    row = _verify_row(tmp_path, cfg)
    assert calls == [("pm", cli.DEFAULT_SEED)]
    assert float(row["predicted"]) == pytest.approx(
        1 / math.sqrt(2 * math.pi * 0.4), rel=1e-12)


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


def test_spectral_header_has_a_column_per_component(tmp_path):
    # an empty grid writes the header alone
    cfg = {"system": MARKOV_SYSTEM, "t_grid": []}
    assert run(tmp_path, "spectral", cfg)[0] == 0
    lines = (tmp_path / "out" / "eigen_curve.csv").read_text().splitlines()
    assert lines == ["t0,t1,re_lambda,im_lambda,abs_lambda,gap"]


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_renewal_non_finite_t_values_exit_2(tmp_path, capsys, bad):
    code, _ = run(tmp_path, "renewal", {"t_values": [50.2, bad]})
    assert code == 2
    err = capsys.readouterr().err
    assert "t_values must be finite" in err and "Traceback" not in err


def test_renewal_state_budget_exits_3(tmp_path, capsys, monkeypatch):
    from lcltflow import renewal_exact
    monkeypatch.setattr(renewal_exact, "_MEMORY_BUDGET", 50_000)
    code, _ = run(tmp_path, "renewal", {"t_values": [20.5]})
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "states" in err and "Traceback" not in err


def test_renewal_state_keys_beyond_int64_exit_3(tmp_path, capsys):
    big = 1 << 60
    system = {"type": "renewal", "D": 2,
              "atoms": [[-1, 0, big, 0, 1, 2], [1, 0, big, 1, 1, 2]]}
    code, _ = run(tmp_path, "renewal",
                  {"system": system, "t_values": [3 * big]})
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "int64" in err and "Traceback" not in err


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


@pytest.mark.parametrize("band", [
    {"band_period": 0}, {"band_period": -1}, {"band_period": math.inf},
    {"band_delta": 0}, {"band_delta": -0.2}, {"band_delta": 1},
    {"band_delta": 1.5}, {"band_delta": 2, "band_period": 2}])
def test_correlate_band_must_be_a_proper_subset(tmp_path, capsys, band):
    # an empty or full band (or none, at period 0) once exited 0 with an
    # all-zero series
    cfg = {"system": COIN_SYSTEM, "t_grid": [2.0], "N": 100, **band}
    assert run(tmp_path, "correlate", cfg)[0] == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert "band_delta" in err or "cannot read number inf" in err


@pytest.mark.parametrize("t_grid", [[2, 1], [2.0, 2.0]])
def test_correlate_t_grid_must_be_increasing(tmp_path, capsys, t_grid):
    # [2, 1] once exited 3, the code of a mathematical domain error
    cfg = {"system": COIN_SYSTEM, "t_grid": t_grid, "N": 100}
    assert run(tmp_path, "correlate", cfg)[0] == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert "t_grid must be increasing" in err


def test_simulate_rejects_an_empty_window_list(tmp_path, capsys):
    # once exited 0 and wrote [] as simulate.json
    cfg = {"system": COIN_SYSTEM, "t": 2, "N": 10, "windows": []}
    assert run(tmp_path, "simulate", cfg)[0] == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert "'windows' must be a non-empty list" in err
    assert not (tmp_path / "out" / "simulate.json").exists()


# ---------------------------------------------------------------------------
# exit codes and manifests
# ---------------------------------------------------------------------------

def test_bad_json_is_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert cli.main(["classify", str(p)]) == 2


@pytest.mark.parametrize("command", ["verify", "simulate", "classify"])
@pytest.mark.parametrize("config", [None, [1, 2], "x", 3])
def test_config_must_be_a_json_object(tmp_path, capsys, command, config):
    # null once failed verify with an AttributeError traceback
    assert run(tmp_path, command, write_cfg(tmp_path, config))[0] == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert "a config is a JSON object" in err


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
    # an integer beyond the float range once exited 3
    ("simulate", {"system": OSC_SYSTEM, "t": 10 ** 400, "N": 10,
                  "windows": [["flow", 0, -1, 1]]}),
])
def test_malformed_config_is_parse_error(tmp_path, capsys, command, cfg):
    code, _ = run(tmp_path, command, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("command, cfg, field", [
    ("verify", {"system": OSC_SYSTEM, "t": -5, "N": 10, "sigma_flow": 1.0,
                "windows": [[0, -1, 1]]}, "t"),
    ("verify", {"system": OSC_SYSTEM, "t": 0, "N": 10, "sigma_flow": 1.0,
                "windows": [[0, -1, 1]]}, "t"),
    ("verify", dict(PREDICT_CFG, mode="lattice", system=OSC_SYSTEM, N=10,
                    request=dict(PREDICT_CFG["request"], t=-3)),
     "the request's t"),
    # predict once wrote a record for t = -5
    ("predict", dict(PREDICT_CFG, request=dict(PREDICT_CFG["request"], t=-5)),
     "the request's t"),
    ("simulate", {"system": OSC_SYSTEM, "t": 0, "N": 10,
                  "windows": [["flow", 0, -1, 1]]}, "t"),
    ("correlate", {"system": COIN_SYSTEM, "t_grid": [-3, 2], "N": 10},
     "t_grid")],
    ids=["verify-negative", "verify-zero", "lattice-request-negative",
         "predict-request-negative", "simulate-zero", "correlate-negative"])
def test_non_positive_flow_time_exits_2(tmp_path, capsys, command, cfg,
                                        field):
    # these once exited 3 ("math domain error"), 4 or 0
    assert run(tmp_path, command, cfg)[0] == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"error: {field} must be a positive flow time")


@pytest.mark.parametrize("command, cfg, words", [
    ("renewal", {"t_values": []}, "'t_values' must be a non-empty list"),
    ("correlate", {"system": COIN_SYSTEM, "t_grid": [], "N": 10},
     "'t_grid' must be a non-empty list"),
    ("spectral", {"system": MARKOV_SYSTEM, "components": []},
     "components must be"),
    ("spectral", {"system": MARKOV_SYSTEM, "components": [2]},
     "components must be"),
    ("spectral", {"system": MARKOV_SYSTEM, "components": [0, 0]},
     "components must be"),
    # reversed or empty intervals once exited 0: predict with a negative
    # value, lattice verify with a check that could not fail
    ("predict", {"case": {"variant": "A"}, "sigma_flow": 1, "nu_tau": 1,
                 "request": {"t": 100, "I": [0.5, 0.2], "J": [0, 1],
                             "target": [-0.5, 0.5]}},
     "the request's I = [0.5, 0.2] is empty"),
    ("predict", {"case": {"variant": "A"}, "sigma_flow": 1, "nu_tau": 1,
                 "request": {"t": 100, "target": [0.5, 0.5]}},
     "the request's target = [0.5, 0.5] is empty"),
    ("verify", dict(_bench_lattice_cfg(16), request=dict(
        _bench_lattice_cfg(16)["request"], I=[SQ2 - 1, 0.0])),
     "the request's I = "),
    ("verify", dict(_bench_lattice_cfg(16), request=dict(
        _bench_lattice_cfg(16)["request"], I=[0.2, 0.2])),
     "the request's I = [0.2, 0.2] is empty"),
    ("verify", dict(_bench_lattice_cfg(16), request=dict(
        _bench_lattice_cfg(16)["request"], J=[1, 0])),
     "the request's J = [1, 0] is empty")],
    ids=["renewal-t_values", "correlate-t_grid", "components-empty",
         "components-out-of-range", "components-repeated",
         "predict-I-reversed", "predict-target-empty",
         "lattice-I-reversed", "lattice-I-empty", "lattice-J-reversed"])
def test_empty_list_or_bad_components_names_the_field(tmp_path, capsys,
                                                      command, cfg, words):
    assert run(tmp_path, command, cfg)[0] == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert words in err


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


@pytest.mark.parametrize("alpha, code", [
    (True, 2), (False, 2), ("0.25", 2), (None, 2), ([1, 4], 2),
    (0.6, 3), (0, 3), (math.nan, 3)])
def test_pm_alpha_of_the_wrong_type_is_parse_error(tmp_path, capsys, alpha,
                                                   code):
    # Python reads true as 1, but a bool is no number here; a number
    # outside (0, 1/2) is a domain error
    cfg = {"system": {"type": "pm", "alpha": alpha}, "t": 2, "N": 10,
           "windows": [["flow", 0, -1, 1]]}
    assert run(tmp_path, "simulate", cfg)[0] == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert ("cannot read alpha" if code == 2 else "alpha must lie") in err


def _markov_with(P=None, entry=None, value=None):
    """A Markov system on P (default a fair two-state chain) with values
    -1, 1, 1, ... along each row and unit roofs, one f entry set to
    value."""
    P = P or [[0.5, 0.5], [0.5, 0.5]]
    system = {"type": "markov", "P": P,
              "f": [[[-1.0 if j == 0 else 1.0, 1.0] for j in range(len(P))]
                    for _ in P]}
    if entry:
        i, j, k = entry
        system["f"][i][j][k] = value
    return system


@pytest.mark.parametrize("system", [
    _markov_with(P=[[0.6, 0.5, -0.1], [0.3, 0.4, 0.3], [0.3, 0.3, 0.4]]),
    _markov_with(P=[[math.nan, 0.5], [0.5, 0.5]]),
    _markov_with(entry=(0, 1, 1), value=math.nan),
    _markov_with(entry=(0, 1, 1), value=math.inf),
    _markov_with(entry=(0, 1, 0), value=math.nan),
])
def test_markov_negative_or_nonfinite_entries_are_domain_errors(
        tmp_path, capsys, system):
    # once accepted: a negative P simulated another chain and a NaN roof
    # never hit, both exiting 4; an infinite roof never ended
    cfg = {"system": system, "t": 2, "N": 10, "sigma_flow": 1.0,
           "windows": [[0, -1, 1]]}
    code, _ = run(tmp_path, "verify", cfg)
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("P, value, words", [
    ([[0.5, "x"], [0.5, 0.5]], None, "Markov P[0][1] = 'x'"),
    ([[0.5, 0.5], [None, 0.5]], None, "Markov P[1][0] = None"),
    (None, True, "Markov f[0][1][1] = True"),
    (None, "1", "Markov f[0][1][1] = '1'")],
    ids=["P-string", "P-null", "f-bool", "f-string"])
def test_markov_entries_must_be_json_numbers(tmp_path, capsys, P, value,
                                             words):
    # a string in P once exited 3 on numpy's "could not convert string to
    # float", and a true roof was read as 1.0 and exited 0
    system = _markov_with(P=P, entry=value is not None and (0, 1, 1),
                          value=value)
    cfg = {"system": system, "t": 2, "N": 10,
           "windows": [["flow", 0, -1, 1]]}
    assert run(tmp_path, "simulate", cfg)[0] == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert words in err


@pytest.mark.parametrize("n_f, words", [
    (2, "not enough values to unpack (expected 3, got 2)"),
    (4, "too many values to unpack (expected 3, got 4)")])
def test_markov_f_must_be_as_large_as_P(tmp_path, capsys, n_f, words):
    # f's size is read from P's: a 2 x 2 x 2 f on a 3 x 3 P once exited 3
    # ("f must give (phi, tau) per transition")
    P = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
    system = dict(_markov_with(P=P), f=_markov_with(P=[[1 / n_f] * n_f]
                                                    * n_f)["f"])
    cfg = {"system": system, "t": 2, "N": 10, "windows": [[0, -1, 1]]}
    assert run(tmp_path, "verify", cfg)[0] == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: cannot read Markov f = ") and words in err


@pytest.mark.parametrize("mode", ["x", None, ["flow"]])
@pytest.mark.parametrize("config", ["markov_flow_verify.json",
                                    "lattice_verify.json"])
def test_verify_rejects_an_unknown_mode(tmp_path, capsys, config, mode):
    # "x" once failed on KeyError('case') with the flow config and ran
    # lattice mode with the lattice one
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "configs", config)
    with open(path) as fh:
        cfg = dict(json.load(fh), mode=mode)
    assert run(tmp_path, "verify", cfg)[0] == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert "unknown verify mode" in err
    assert '"flow"' in err and '"lattice"' in err


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
    # the benchmark's lattice config over nine path blocks, the last one short
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


def _fresh_python(code, environ=None):
    """stdout of ``code`` run by a fresh interpreter on this lcltflow, in
    ``environ`` (default: this process's environment)."""
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    env = dict(os.environ if environ is None else environ,
               PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def test_cli_import_loads_no_process_pool():
    # the blocks run in forked children; no pool module is imported, as
    # every command pays for what the package imports
    code = ("import sys, lcltflow.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    assert _fresh_python(code) == "[]"
    # nor numpy or any layer: each command imports the layers it runs
    layers = ("montecarlo", "renewal_exact", "spectral", "systems", "groups",
              "predict")
    code = ("import sys, lcltflow.cli; print(sorted(m for m in sys.modules"
            f" if m == 'numpy' or m.split('.')[-1] in {layers!r}))")
    assert _fresh_python(code) == "[]"


# which of WATCHED each command's own process loads, by run: the blocks
# draw in forked workers, so the command's process never loads numpy.random
# (nor, through it, OpenSSL's _hashlib), at --workers 1 too; a worker loads
# numpy.random but marks _hashlib unavailable first (test_montecarlo), so
# it peaks no higher than the command's process (33.3 / 33.0 MB on the
# lattice verify config); the checksums come from CPython's own SHA-256,
# so no process loads _hashlib; the exact
# layer (classify, predict) loads no numpy or dataclasses; the renewal DP
# and the lattice oracle load no numpy.ma, and only they load
# renewal_exact (a flow-mode verify does not); only the intermittent map
# loads numpy.polynomial.  Two blocks each, so --workers 2 forks two
# workers.
WATCHED = ("numpy", "numpy.random", "numpy.ma", "numpy.polynomial",
           "_hashlib", "dataclasses", "lcltflow.renewal_exact")
_N2 = BLOCK_SIZE + 100
_PM_FLOW = {"system": {"type": "pm", "alpha": 0.25}, "mode": "flow", "t": 20,
            "N": _N2, "windows": [[0, -0.5, 0.5]]}
_MC = ["dataclasses", "numpy"]
_DP = ["dataclasses", "lcltflow.renewal_exact", "numpy"]
COMMAND_PROCESSES = [
    ("classify", {"generators": [[0, 1], [1, [0, 1, 1, 1]],
                                 [1, [1, 1, 1, 1]]]}, None, []),
    ("classify", {"system": OSC_SYSTEM}, None, []),
    ("predict", PREDICT_CFG, None, []),
    ("spectral", {"system": MARKOV_SYSTEM, "t_grid": [[0, 0], [1, 2]]}, None,
     ["numpy"]),
    ("renewal", {"t_values": [50.2, 50.5]}, None, _DP),
    ("verify", _bench_lattice_cfg(_N2), "1", _DP),
    ("verify", _bench_lattice_cfg(_N2), "2", _DP),
    ("verify", _bench_flow_cfg(_N2), "1", _MC),
    ("verify", _bench_flow_cfg(_N2), "2", _MC),
    ("verify", _PM_FLOW, "1", _MC + ["numpy.polynomial"]),
    ("verify", _PM_FLOW, "2", _MC + ["numpy.polynomial"]),
]


@pytest.fixture(scope="module")
def command_processes(tmp_path_factory):
    """(exit code, the WATCHED modules loaded, manifest) of each run of
    COMMAND_PROCESSES, each in its own process forked from a fresh
    interpreter that has imported lcltflow.cli and nothing else of it."""
    tmp = tmp_path_factory.mktemp("processes")
    argvs = []
    for k, (command, cfg, workers, _) in enumerate(COMMAND_PROCESSES):
        argvs.append([command, write_cfg(tmp, cfg, f"{k}.json"),
                      "--out", str(tmp / str(k)), "--seed", "1",
                      *(["--workers", workers] if workers else [])])
    code = ("import json, os, sys; from lcltflow import cli\n"
            "seen = []\n"
            f"for argv in {argvs!r}:\n"
            "    r, w = os.pipe()\n"
            "    if os.fork() == 0:\n"
            "        got = [cli.main(argv), sorted(\n"
            f"            m for m in {WATCHED!r} if m in sys.modules)]\n"
            "        os.write(w, json.dumps(got).encode())\n"
            "        os._exit(0)\n"
            "    os.close(w)\n"
            "    with os.fdopen(r) as fh:\n"
            "        seen.append(json.load(fh))\n"
            "    os.wait()\n"
            "print(json.dumps(seen))")
    seen = json.loads(_fresh_python(code).splitlines()[-1])
    return [(exit_code, loaded, exit_code == 0 and json.loads(
                 (tmp / str(k) / "manifest.json").read_text()))
            for k, (exit_code, loaded) in enumerate(seen)]


def test_the_calling_process_loads_only_what_it_runs(command_processes):
    assert [(code, loaded) for code, loaded, _ in command_processes] == \
        [(0, loaded) for *_, loaded in COMMAND_PROCESSES]


def test_exact_commands_run_without_numpy(tmp_path, command_processes):
    # a command's manifest records the numpy loaded in its process: none
    # for the exact commands, classify on a renewal system included
    import numpy as np

    assert [manifest["versions"]["numpy"]
            for _, _, manifest in command_processes] == \
        [np.__version__ if "numpy" in loaded else None
         for *_, loaded in COMMAND_PROCESSES]
    # the field is the numpy in the process: in this one, numpy is loaded,
    # so predict records it too
    assert run(tmp_path, "predict", PREDICT_CFG)[0] == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["versions"]["numpy"] == np.__version__


@pytest.mark.parametrize("chosen", [None, "2"])
def test_openblas_runs_one_thread_unless_the_caller_chose(tmp_path, chosen):
    # main sets OPENBLAS_NUM_THREADS before a command loads numpy, where
    # OpenBLAS reads it; a value in the caller's environment is kept
    cfg = write_cfg(tmp_path, {"t_values": [10.5]})
    environ = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
    if chosen is not None:
        environ["OPENBLAS_NUM_THREADS"] = chosen
    argv = ["renewal", cfg, "--out", str(tmp_path / "out")]
    script = ("import os, sys; from lcltflow import cli\n"
              f"code = cli.main({argv!r})\n"
              "tasks = '/proc/self/task'\n"
              "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) "
              "else 0\n"
              "print(code, 'numpy' in sys.modules, "
              "os.environ['OPENBLAS_NUM_THREADS'], threads)")
    code, numpy, value, threads = \
        _fresh_python(script, environ).splitlines()[-1].split()
    assert (code, numpy, value) == ("0", "True", chosen or "1")
    if chosen is None and threads != "0":
        # no OpenBLAS pool beside the main thread
        assert threads == "1"


@pytest.mark.parametrize("under", [False, True])
def test_out_that_cannot_be_created_is_parse_error(tmp_path, capsys, under):
    # --out naming a file, or a directory under a file, once died with a
    # traceback
    (tmp_path / "f").write_text("")
    out = tmp_path / "f" / "out" if under else tmp_path / "f"
    cfg = write_cfg(tmp_path, {"t_values": [10.5]})
    assert cli.main(["renewal", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: cannot create output directory")
    assert (tmp_path / "f").read_text() == ""


def test_output_that_cannot_be_written_is_parse_error(tmp_path, capsys):
    # a directory where scan.csv would go
    (tmp_path / "out" / "scan.csv").mkdir(parents=True)
    assert run(tmp_path, "renewal", {"t_values": [10.5]})[0] == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: cannot write") and "scan.csv" in err
    assert os.listdir(tmp_path / "out") == ["scan.csv"]


@pytest.mark.parametrize("extra", [
    ("--seed", "-1"), ("--seed", str(1 << 64)), ("--seed", "x"),
    ("--workers", "0"), ("--workers", "-2")])
def test_seed_and_workers_out_of_range_are_parse_errors(tmp_path, capsys,
                                                        extra):
    # seed 2**64 + s would draw seed s's block 1 as its block 0, and workers
    # below 1 once ran serially
    cfg = {"system": COIN_SYSTEM, "t": 2, "N": 10,
           "windows": [["section", 1, 0]]}
    assert run(tmp_path, "simulate", cfg, *extra)[0] == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert f"argument {extra[0]}" in err and "Traceback" not in err


def test_largest_seed_is_accepted(tmp_path):
    cfg = {"system": COIN_SYSTEM, "t": 2, "N": 10,
           "windows": [["section", 1, 0]]}
    seed = (1 << 64) - 1
    assert run(tmp_path, "simulate", cfg, "--seed", str(seed))[0] == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seed"] == seed


@pytest.mark.parametrize("text", ["case D, covolume=1\n", "σ² ≈ 0.5, ν_τ\n"],
                         ids=["ascii", "non-ascii"])
def test_checksum_is_sha256_of_the_utf8_text(text):
    import hashlib
    assert cli._sha256(text) == hashlib.sha256(text.encode()).hexdigest()


def test_outputs_are_created_under_the_umask(tmp_path):
    # the temporary file an output is renamed from was once made 0600, so
    # outputs came out unreadable by other users
    old = os.umask(0o022)
    try:
        code, out = run(tmp_path, "classify", {"system": OSC_SYSTEM})
    finally:
        os.umask(old)
    assert code == 0
    assert sorted(os.listdir(out)) == ["classify.json", "manifest.json"]
    for name in os.listdir(out):
        assert os.stat(os.path.join(out, name)).st_mode & 0o777 == 0o644


def test_no_stray_tempfiles(tmp_path):
    cfg = {"t_values": [10.5]}
    code, out = run(tmp_path, "renewal", cfg)
    assert code == 0
    assert not [f for f in os.listdir(out) if f.startswith(".tmp-")]
