"""Command line driver: pipelines, outputs, and the exit code contract.

Most tests call main() in-process; one subprocess case covers the module
entry point.  Grid and z values beginning with "-" are passed as separate
tokens on purpose: the dash-binding preprocessing must keep them values.
"""

import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cliffdunkl import quadrature
from cliffdunkl.cdt_engine import rel_l2_error
from cliffdunkl.cli import main
from cliffdunkl.field_io import load_field

from oracles import reports_from_json


def _gauss_doc(scale=None):
    body = "exp(-(x1^2+x2^2))"
    if scale is not None:
        body = f"{scale}*{body}"
    return {
        "signature": [0, 2],
        "kappa": [0.3, 0.7],
        "split": 1,
        "blades": {"1": body},
    }


@pytest.fixture()
def gauss_file(tmp_path):
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps(_gauss_doc()))
    return path


def test_transform_inverse_pipeline(tmp_path, gauss_file, capsys):
    fwd = tmp_path / "F.json"
    back = tmp_path / "back.json"
    rc = main(["transform", "--field", str(gauss_file),
               "--in-grid", "-6:6:1:32", "--out-grid", "-8:8:1:32",
               "--out", str(fwd)])
    assert rc == 0
    assert "transform: wrote" in capsys.readouterr().out
    F = load_field(fwd)
    assert F.grid.axes[0].L == 8.0
    rc = main(["inverse", "--field", str(fwd),
               "--in-grid", "-8:8:1:32", "--out-grid", "-6:6:1:32",
               "--out", str(back)])
    assert rc == 0
    got = load_field(back)
    f = load_field(gauss_file)
    want = got.__class__(f.sig, f.ms, got.grid, f.sample(got.grid))
    assert rel_l2_error(got, want) <= 1e-5


def test_roundtrip_reports_the_error(gauss_file, capsys):
    rc = main(["roundtrip", "--field", str(gauss_file),
               "--in-grid", "-6:6:1:48", "--out-grid", "-9:9:1:48"])
    assert rc == 0
    out = capsys.readouterr().out
    m = re.search(r"roundtrip relative L2 error: ([0-9.e+-]+)", out)
    assert m and float(m.group(1)) <= 1e-5


def test_plancherel_prints_ratio_and_claim(gauss_file, capsys):
    rc = main(["plancherel", "--field", str(gauss_file),
               "--in-grid", "-8:8:1:48", "--out-grid", "-8:8:1:48"])
    assert rc == 0
    out = capsys.readouterr().out
    m = re.search(r"ratio \|F\|\^2/\|f\|\^2 = ([0-9.]+)", out)
    assert m and float(m.group(1)) == pytest.approx(18.282784859, rel=1e-6)
    assert "[flagged]" in out  # the asserted constant disagrees; that is data


def test_eigencheck_from_flags(capsys):
    rc = main(["eigencheck", "--sig", "0,2", "--kappa", "0.3,0.7", "--split", "1",
               "--v", "1", "--u", "0",
               "--in-grid", "-8:8:1:48", "--out-grid", "-8:8:1:48"])
    assert rc == 0
    out = capsys.readouterr().out
    m = re.search(r"measured ([0-9.]+)", out)
    assert m and float(m.group(1)) == pytest.approx(4.2758373, rel=1e-5)


def test_translate_methods_agree(tmp_path, gauss_file):
    outs = {}
    for method in ("spectral", "explicit"):
        out = tmp_path / f"{method}.json"
        rc = main(["translate", "--field", str(gauss_file),
                   "--z", "-0.4,0.2", "--method", method,
                   "--in-grid", "-6.5:6.5:1:48", "--out-grid", "-9:9:1:48",
                   "--out", str(out)])
        assert rc == 0
        outs[method] = load_field(out)
    assert rel_l2_error(outs["spectral"], outs["explicit"]) <= 1e-5


def test_convolve_runs(tmp_path, gauss_file, capsys):
    g2 = tmp_path / "g2.json"
    g2.write_text(json.dumps(_gauss_doc()))
    out = tmp_path / "conv.json"
    rc = main(["convolve", "--field", str(gauss_file), "--field2", str(g2),
               "--in-grid", "-5:5:1:12", "--out-grid", "-5:5:1:12",
               "--out", str(out)])
    assert rc == 0
    assert load_field(out).norm2() > 0.0


def test_miyachi_boundary_verdict(tmp_path, capsys):
    f = tmp_path / "two_gauss.json"
    f.write_text(json.dumps(_gauss_doc(scale=2)))
    rc = main(["miyachi", "--field", str(f),
               "--alpha", "1", "--beta", "0.25", "--lambda", "3",
               "--exponent", "inf",
               "--in-grid", "-8:8:1:32"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] == "boundary"
    assert doc["condition1"] == "finite" and doc["condition2"] == "finite"
    assert doc["C"]["1"] == pytest.approx(2.0, abs=1e-9)
    assert doc["lambda_check"] is True
    assert [r["L"] for r in doc["ladder"]] == [2.0, 3.0, 4.0, 5.0]


def test_miyachi_ladder_flag(tmp_path, capsys):
    f = tmp_path / "g.json"
    f.write_text(json.dumps(_gauss_doc()))
    rc = main(["miyachi", "--field", str(f),
               "--alpha", "1", "--beta", "1", "--lambda", "1",
               "--ladder", "2,2.5,3,3.5",
               "--in-grid", "-8:8:1:32"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] == "vanishing"
    assert [r["L"] for r in doc["ladder"]] == [2.0, 2.5, 3.0, 3.5]


def test_verify_flags_and_writes_reports(tmp_path, capsys):
    out = tmp_path / "reports.json"
    rc = main(["verify", "--out", str(out)])
    assert rc == 5  # the asserted constants disagree with measurement
    err = capsys.readouterr().err
    assert "28 claims measured, 6 flagged" in err
    reports = reports_from_json(out.read_text())
    assert len(reports) == 28
    assert sum(r.status == "flagged" for r in reports) == 6


def test_verify_passes_with_loose_tolerance(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rtol": 100.0, "order": 24, "L_x": 6.0, "L_y": 6.0}))
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert rc == 0


def test_kernel_component_parity(capsys):
    rc = main(["kernel", "--kappa", "0.5", "--t", "2.0"])
    assert rc == 0
    out1 = capsys.readouterr().out
    rc = main(["kernel", "--kappa", "0.5", "--t", "-2.0"])
    assert rc == 0
    out2 = capsys.readouterr().out

    def grab(text):
        a = float(re.search(r"A = (.+)", text).group(1))
        b = float(re.search(r"B = (.+)", text).group(1))
        return a, b

    a1, b1 = grab(out1)
    a2, b2 = grab(out2)
    assert a1 == a2 and b1 == -b2  # A even, B odd
    assert abs(a1) <= 1.0 and b1 != 0.0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cliffdunkl.cli", "kernel", "--kappa", "0", "--t", "1.0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    a = float(re.search(r"A = (.+)", proc.stdout).group(1))
    b = float(re.search(r"B = (.+)", proc.stdout).group(1))
    assert a == math.cos(1.0) and b == -math.sin(1.0)


# -- exit codes ----------------------------------------------------------------


def test_usage_errors_exit_2(tmp_path, gauss_file, capsys):
    rc = main(["transform", "--field", str(gauss_file),
               "--in-grid", "junk", "--out", str(tmp_path / "o.json")])
    assert rc == 2
    rc = main(["transform", "--field", str(gauss_file),
               "--in-grid", "-6:6:1:32", "--out-grid", "-6:6:2:32",
               "--out", str(tmp_path / "o.json")])
    assert rc == 2  # panels/order must match across sides
    rc = main(["eigencheck", "--sig", "0,2", "--kappa", "0.3,0.7",
               "--v", "1,1", "--u", "0"])
    assert rc == 2
    rc = main(["eigencheck", "--kappa", "0.3,0.7", "--v", "0", "--u", "0"])
    assert rc == 2  # --sig required without a field file
    capsys.readouterr()


def test_argparse_rejections_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--field", "f.json"])  # --out is required
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("split", ["0", "2", "7"])
def test_split_is_cross_checked_against_the_field_file(tmp_path, gauss_file, capsys, split):
    out = tmp_path / "x.json"
    rc = main(["transform", "--field", str(gauss_file), "--split", split,
               "--in-grid", "-4:4:1:8", "--out-grid", "-4:4:1:8", "--out", str(out)])
    assert rc == 3
    assert "split: field file says 1" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["transform", "--field", str(gauss_file), "--split", "1",
               "--in-grid", "-4:4:1:8", "--out-grid", "-4:4:1:8", "--out", str(out)])
    assert rc == 0


@pytest.mark.parametrize("argv", [
    ["plancherel", "--field", "F", "--out", "p.json"],
    ["eigencheck", "--sig", "0,2", "--kappa", "0.3,0.7", "--v", "0", "--u", "0", "--out", "e.json"],
    ["miyachi", "--field", "F", "--alpha", "1", "--beta", "1", "--lambda", "1",
     "--out-grid", "-8:8:1:32"],
], ids=["plancherel-out", "eigencheck-out", "miyachi-out-grid"])
def test_flags_a_command_never_reads_exit_2(gauss_file, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([str(gauss_file) if tok == "F" else tok for tok in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_input_errors_exit_3(tmp_path, gauss_file, capsys):
    rc = main(["transform", "--field", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "o.json")])
    assert rc == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    rc = main(["transform", "--field", str(bad), "--out", str(tmp_path / "o.json")])
    assert rc == 3
    rc = main(["transform", "--field", str(gauss_file), "--kappa", "0.5,0.5",
               "--out", str(tmp_path / "o.json")])
    assert rc == 3  # cross-check against the file header fails
    rc = main(["verify", "--config", str(tmp_path / "missing_cfg.json")])
    assert rc == 3
    capsys.readouterr()


def test_numerical_failures_exit_4(tmp_path, gauss_file, capsys):
    rc = main(["transform", "--field", str(gauss_file),
               "--in-grid", "-18:18:1:16", "--out-grid", "-18:18:1:16",
               "--out", str(tmp_path / "o.json")])
    assert rc == 4  # kernel argument beyond the trusted radius
    capsys.readouterr()


def test_large_kappa_roundtrip_until_the_constant_underflows(tmp_path, capsys):
    # kappa = 60 has a normal Mehta constant, so the command runs (the
    # residual is ~1: the weighted mass sits near |x| = sqrt(2 kappa),
    # outside this grid); at kappa = 100 (c_p c_q)^2 underflows, which is
    # a numerical failure instead of a NaN residual
    for kappa, code in ((60.0, 0), (100.0, 4)):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(dict(_gauss_doc(), kappa=[kappa, 0.5])))
        rc = main(["roundtrip", "--field", str(path),
                   "--in-grid", "-4:4:1:8", "--out-grid", "-4:4:1:8"])
        out, err = capsys.readouterr()
        assert rc == code
        if code == 0:
            assert math.isfinite(float(re.search(r"error: (\S+)", out).group(1)))
        else:
            assert "numerical failure" in err and "Traceback" not in err


def test_overflowing_grid_weights_exit_4(tmp_path, capsys):
    # kappa = 200 on the default -6:6 grid: |x|^400 overflows, which used
    # to write a field with |.|_2 = nan and exit 0
    path = tmp_path / "k.json"
    path.write_text(json.dumps(dict(_gauss_doc(), kappa=[200.0, 0.3])))
    out = tmp_path / "F.json"
    rc = main(["transform", "--field", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 4 and not out.exists()
    assert "numerical failure: quadrature weights overflow for kappa = 200.0" in err


def test_grid_of_too_many_values_exits_4(tmp_path, capsys):
    # Cl(0,4) at order 24: 48^4 nodes pass the node cap, but with 16 blades
    # each array would hold 84934656 values (648 MiB)
    path = tmp_path / "g4.json"
    path.write_text(json.dumps({
        "signature": [0, 4], "kappa": [0.3, 0.7, 0.5, 0.2], "split": 2,
        "blades": {"1": "exp(-(x1^2+x2^2+x3^2+x4^2))"},
    }))
    out = tmp_path / "F.json"
    rc = main(["transform", "--field", str(path), "--in-grid", "-3:3:1:24",
               "--out-grid", "-3:3:1:24", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 4 and not out.exists()
    assert "numerical failure: 5308416 nodes x 16 blades = 84934656 values exceeds cap" in err


def test_oversized_grid_spec_exits_4_before_any_eigen_solve(tmp_path, gauss_file, capsys,
                                                            monkeypatch):
    def no_solve(*args):
        raise AssertionError("Golub-Welsch solve before the cap")

    monkeypatch.setattr(quadrature, "gauss_from_recurrence", no_solve)
    out = tmp_path / "F.json"
    rc = main(["transform", "--field", str(gauss_file), "--in-grid", "-3:3:1:1500",
               "--out-grid", "-3:3:1:1500", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 4 and not out.exists()
    assert "numerical failure: 9000000 nodes x 4 blades = 36000000 values exceeds cap" in err


def test_overflowing_constants_exit_4_without_warnings(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kappa": [100, 0.5]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["eigencheck", "--sig", "0,2", "--kappa", "100,0.5", "--v", "0", "--u", "0"])
        err = capsys.readouterr().err
        assert rc == 4 and "block constant" in err and "kappa = (100.0, 0.5)" in err
        rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert rc == 4 and "(c_p c_q)^2 underflows" in err


def test_non_finite_kappa_is_an_input_error(tmp_path, capsys):
    # a NaN multiplicity is refused when the file is read, not deep in a plan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(dict(_gauss_doc(), kappa=[math.nan, 0.5])))
    rc = main(["translate", "--field", str(path), "--z", "0.1,0.2",
               "--method", "explicit", "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "input error: kappa" in err and "Traceback" not in err
    rc = main(["eigencheck", "--sig", "0,2", "--kappa", "inf,0.5", "--v", "0", "--u", "0"])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_non_finite_samples_are_an_input_error(tmp_path, capsys):
    # json reads the NaN literal; a sampled file holding one used to be
    # transformed into an all-NaN field with exit 0
    samples = [[0.0] * 4 for _ in range(4)]
    samples[1][2] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"signature": [0, 2], "kappa": [0.3, 0.7], "split": 1,
                                "grid": {"L": [2.0, 2.0], "panels": 1, "order": 2},
                                "blades": {"e2": samples}}))
    out = tmp_path / "F.json"
    rc = main(["transform", "--field", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3 and not out.exists()
    assert "input error: blades.e2: samples must be finite numbers" in err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_an_overflowing_transform_is_a_numerical_failure(tmp_path, capsys):
    # every sample is finite, but the transform overflows to NaN; it used to
    # be written as NaN literals with exit 0, and inverse then refused the file
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"signature": [0, 2], "kappa": [0.3, 0.7], "split": 1,
                                "grid": {"L": [6.0, 6.0], "panels": 1, "order": 8},
                                "blades": {"1": [[1e308] * 16 for _ in range(16)]}}))
    out = tmp_path / "F.json"
    rc = main(["transform", "--field", str(path), "--in-grid", "-6:6:1:8",
               "--out-grid", "-6:6:1:8", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 4 and not out.exists()
    assert "numerical failure: field values hold a non-finite number" in captured.err
    assert "wrote" not in captured.out


def test_an_overflowing_transform_reports_once(tmp_path):
    # numpy's overflow and invalid-value warnings used to reach stderr
    # ahead of the failure line; the finite check reports the overflow
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"signature": [0, 2], "kappa": [0.3, 0.7], "split": 1,
                                "blades": {"1": "1e308*exp(-(x1^2+x2^2))"}}))
    proc = subprocess.run(
        [sys.executable, "-m", "cliffdunkl.cli", "transform", "--field", str(path),
         "--out", str(tmp_path / "F.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 4
    assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1


def test_kernel_at_large_kappa_exits_0(capsys):
    # kappa >= 86 used to overflow the Jacobi rule's total mass
    rc = main(["kernel", "--kappa", "100", "--t", "5"])
    assert rc == 0
    a = float(re.search(r"A = (.+)", capsys.readouterr().out).group(1))
    assert a == pytest.approx(0.939687297051085550834993483378, rel=1e-13)


def test_miyachi_bad_ladder_exits_2(tmp_path, gauss_file, capsys):
    rc = main(["miyachi", "--field", str(gauss_file),
               "--alpha", "1", "--beta", "1", "--lambda", "1",
               "--ladder", "5,4,3,2"])
    assert rc == 2
    for flag in ("--alpha", "--beta", "--lambda"):
        values = {"--alpha": "1", "--beta": "1", "--lambda": "1", flag: "nan"}
        rc = main(["miyachi", "--field", str(gauss_file),
                   *(x for kv in values.items() for x in kv)])
        assert rc == 2
    rc = main(["miyachi", "--field", str(gauss_file),
               "--alpha", "1", "--beta", "1", "--lambda", "1", "--ladder", "1,2,nan"])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("config,code", [
    ({"rtol": -1}, 3),
    ({"kappa": [-1, 0]}, 3),
    ({"p": 0, "q": 3, "kappa": [0.3, 0.7, 0.5]}, 3),  # the ledger's fields are 2-D
    ({"split": 0}, 3),
    ([1, 2], 3),
    ({"kapa": [0.5, 0.5]}, 3),  # a misspelt key is not silently ignored
    ({"L_x": 18.0, "L_y": 18.0}, 4),  # beyond the kernel radius
])
def test_verify_config_errors(tmp_path, capsys, config, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert rc == code
    assert ("input error" if code == 3 else "numerical failure") in err


def test_signature_beyond_six_generators(tmp_path, capsys):
    path = tmp_path / "d7.json"
    path.write_text(json.dumps(dict(_gauss_doc(), signature=[0, 7])))
    rc = main(["roundtrip", "--field", str(path)])
    assert rc == 3
    assert "input error: signature" in capsys.readouterr().err
    rc = main(["eigencheck", "--sig", "0,7", "--kappa", ",".join(["0.5"] * 7),
               "--v", "0,0,0", "--u", "0,0,0,0"])
    assert rc == 2
    rc = main(["eigencheck", "--sig", "2", "--kappa", "0.5,0.5", "--v", "0", "--u", "0"])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code", [
    (["kernel", "--kappa", "-1", "--t", "1"], 2),
    (["kernel", "--kappa", "nan", "--t", "1"], 2),
    (["kernel", "--kappa", "inf", "--t", "1"], 2),
    (["kernel", "--kappa", "0.5", "--t", "nan"], 2),
    (["kernel", "--kappa", "0.5", "--t", "1e300"], 4),  # beyond the kernel radius
])
def test_kernel_flag_domain(capsys, argv, code):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert ("usage error" if code == 2 else "numerical failure") in err


def test_non_finite_translation_exits_2(tmp_path, gauss_file, capsys):
    for method in ("spectral", "explicit"):
        rc = main(["translate", "--field", str(gauss_file), "--z", "nan,0",
                   "--method", method, "--out", str(tmp_path / "o.json")])
        assert rc == 2
    assert not (tmp_path / "o.json").exists()
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["-6:6:0:8", "-6:6:1:0", "-6:6:-1:8"])
def test_grid_spec_needs_a_panel_and_a_node(gauss_file, capsys, spec):
    rc = main(["roundtrip", "--field", str(gauss_file), "--in-grid", spec, "--out-grid", spec])
    err = capsys.readouterr().err
    assert rc == 2
    assert "usage error" in err and "Traceback" not in err


@pytest.mark.parametrize("v", ["-1", "9"])
def test_eigencheck_bad_indices_exit_2(capsys, v):
    # -1 used to be read as h_0 and crash in a unit power; 9 (level > 8)
    # crashed in the fit's level check
    rc = main(["eigencheck", "--sig", "0,2", "--kappa", "0.3,0.7", "--v", v, "--u", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_an_infinite_grid_spec_exits_2(tmp_path, gauss_file, capsys):
    rc = main(["transform", "--field", str(gauss_file), "--in-grid", "-inf:inf:1:8",
               "--out-grid", "-6:6:1:8", "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert rc == 2 and not (tmp_path / "o.json").exists()
    assert err.startswith("usage error: ") and err.count("\n") == 1


def _sampled_doc(value):
    # a Cl(0,2) field of one constant scalar blade on a 16 x 16 grid
    return {"signature": [0, 2], "kappa": [0.3, 0.7], "split": 1,
            "grid": {"L": [6.0, 6.0], "panels": 1, "order": 8},
            "blades": {"1": [[value] * 16 for _ in range(16)]}}


SMALL = ["--in-grid", "-6:6:1:8", "--out-grid", "-6:6:1:8"]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("argv,code,message", [
    (["transform", "--field", "F", "--sig", "1,1", "--out", "O"], 3,
     "input error: signature: field file says (0,2), --sig says (1,1)"),
    (["eigencheck", "--sig", "0,2", "--kappa", "0.3", "--v", "0", "--u", "0"], 2,
     "usage error: --kappa wants 2 values for --sig 0,2"),
    (["eigencheck", "--sig", "0,2", "--kappa", "0.3,0.7", "--v", "x", "--u", "0"], 2,
     "usage error: --v wants comma-separated integers, got 'x'"),
    (["roundtrip", "--field", "F", "--in-grid", "-6:6:1:8;-6:6:1:8;-6:6:1:8"], 2,
     "usage error: --in-grid wants 1 or 2 specs, got 3"),
    (["translate", "--field", "F", "--z", "0.1", "--out", "O"], 2,
     "usage error: --z wants 2 values"),
    (["translate", "--field", "S", "--z", "0.1,0.2", "--method", "explicit", *SMALL, "--out", "O"], 3,
     "input error: blades: explicit translation needs an analytic field"),
    (["miyachi", "--field", "S", "--alpha", "1", "--beta", "0.25", "--lambda", "3"], 3,
     "input error: blades: miyachi needs an analytic field: it samples the field on every rung"),
    (["roundtrip", "--field", "BIG", *SMALL], 4,
     "numerical failure: relative L2 error is nan"),
    (["plancherel", "--field", "BIG", *SMALL], 4,
     "numerical failure: Plancherel ratio is nan"),
    (["roundtrip", "--field", "F", "--in-grid", "-6:6:1:16", "--out-grid", "-8:8:1:16", "--out", "O"], 0,
     "roundtrip relative L2 error: "),
    (["miyachi", "--field", "F", "--in-grid", "-6:6:1:16", "--alpha", "1", "--beta", "0.25",
      "--lambda", "3", "--out", "O"], 0, "miyachi: wrote "),
    (["verify"], 5, '"claim": "gaussian-constant-raw"'),
], ids=["sig-cross-check", "kappa-count", "bad-v", "grid-spec-count", "z-length",
        "explicit-on-sampled", "miyachi-on-sampled", "roundtrip-overflow", "plancherel-overflow",
        "roundtrip-out", "miyachi-out", "verify-stdout"])
def test_cli_paths_exit_codes_and_messages(tmp_path, gauss_file, capsys, argv, code, message):
    paths = {"F": gauss_file, "S": tmp_path / "s.json", "BIG": tmp_path / "big.json",
             "O": tmp_path / "o.json"}
    paths["S"].write_text(json.dumps(_sampled_doc(0.5)))
    paths["BIG"].write_text(json.dumps(_sampled_doc(1e308)))
    rc = main([str(paths.get(tok, tok)) for tok in argv])
    captured = capsys.readouterr()
    assert rc == code
    assert message in (captured.out if code in (0, 5) else captured.err)
    assert "Traceback" not in captured.err
    assert paths["O"].exists() == (code == 0 and "O" in argv)
    if code in (2, 3, 4):
        assert captured.err.count("\n") == 1 and not captured.out
    if argv[0] == "verify":
        assert len(json.loads(captured.out)) == 28
        assert captured.err.startswith("28 claims measured, 6 flagged")
