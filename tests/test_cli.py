"""Command line driver: pipelines, outputs, and the exit code contract.

Most tests call main() in-process; one subprocess case covers the module
entry point.  Grid and z values beginning with "-" are passed as separate
tokens on purpose: the dash-binding preprocessing must keep them values.
"""

import argparse
import importlib
import inspect
import json
import math
import pkgutil
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from scipy.special import hyp0f1

import cliffdunkl
from cliffdunkl import cli, dunkl_rank1, quadrature
from cliffdunkl.cdt_engine import rel_l2_error
from cliffdunkl.cli import main
from cliffdunkl.field_io import load_field, read_json
from cliffdunkl.miyachi import check_growth
from cliffdunkl.quadrature import NodeCountExceeded

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


def test_transform_and_inverse_share_their_kernel_tables(tmp_path, gauss_file, monkeypatch):
    plans = []
    build = cli.build_plan

    def recorded(*args, **kwargs):
        plans.append(build(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(cli, "build_plan", recorded)
    fwd = tmp_path / "F.json"
    assert main(["transform", "--field", str(gauss_file), "--in-grid", "-6:6:1:16",
                 "--out-grid", "-8:8:1:16", "--out", str(fwd)]) == 0
    assert main(["inverse", "--field", str(fwd), "--in-grid", "-8:8:1:16",
                 "--out-grid", "-6:6:1:16", "--out", str(tmp_path / "back.json")]) == 0
    first, second = plans
    assert first is not second
    for name in ("fwd_mats", "inv_mats"):
        assert all(m1 is m2 for m1, m2 in zip(getattr(first, name), getattr(second, name)))


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


@pytest.mark.parametrize("ladder", ["2,3,4,5", "2,3,4,5,6,7"])
def test_miyachi_tabulates_two_kernels_per_rung(tmp_path, capsys, monkeypatch, ladder):
    # the command's plan has the last rung as its y grid, so the verdict
    # transforms that rung with it instead of tabulating it again
    calls = []
    tabulate = dunkl_rank1.kernel_ab_integral

    def counted(kappa, t, order):
        calls.append(kappa)
        return tabulate(kappa, t, order)

    monkeypatch.setattr(dunkl_rank1, "kernel_ab_integral", counted)
    f = tmp_path / "g.json"
    f.write_text(json.dumps(_gauss_doc()))
    command = ["miyachi", "--field", str(f), "--alpha", "1", "--beta", "0.25",
               "--lambda", "3", "--ladder", ladder, "--in-grid", "-8:8:1:16"]
    assert main(command) == 0
    rungs = len(json.loads(capsys.readouterr().out)["ladder"])
    assert len(calls) == 2 * rungs
    # the same command again finds every axis's tables in the process cache
    assert main(command) == 0
    assert len(calls) == 2 * rungs


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


def test_one_parser_serves_every_call_and_usage_errors_leave_it_as_it_was(
        tmp_path, gauss_file, capsys, monkeypatch):
    parsers = []
    parse = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *args, **kw: parsers.append(self) or parse(self, *args, **kw))
    out = tmp_path / "F.json"
    argv = ["transform", "--field", str(gauss_file), "--in-grid", "-4:4:1:8",
            "--out-grid", "-4:4:1:8", "--out", str(out)]
    assert main(argv) == 0
    first = capsys.readouterr().out, out.read_bytes()
    out.unlink()
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--field", str(gauss_file), "--z", "1"])  # a flag transform lacks
    assert exc.value.code == 2
    assert main(["transform", "--field", str(gauss_file), "--in-grid", "junk", "--out", str(out)]) == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert (capsys.readouterr().out, out.read_bytes()) == first
    assert len(parsers) == 4 and all(p is parsers[0] for p in parsers)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = re.search(r"\{(.*?)\}", capsys.readouterr().out).group(1).split(",")
    assert listed == ["transform", "inverse", "roundtrip", "plancherel", "eigencheck", "translate",
                      "convolve", "miyachi", "verify", "kernel"]


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
    # a NaN multiplicity is refused when the file is read, not deep in a plan;
    # the reader refuses the NaN literal itself
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(dict(_gauss_doc(), kappa=[math.nan, 0.5])))
    rc = main(["translate", "--field", str(path), "--z", "0.1,0.2",
               "--method", "explicit", "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "input error: $: not valid JSON" in err and "Traceback" not in err
    rc = main(["eigencheck", "--sig", "0,2", "--kappa", "inf,0.5", "--v", "0", "--u", "0"])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_non_finite_samples_are_an_input_error(tmp_path, capsys):
    # a sampled file holding the NaN literal used to be transformed into an
    # all-NaN field with exit 0; orjson refuses the literal while it parses
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
    assert "input error: $: not valid JSON" in err


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


_HEADER = b'{"signature": [0, 2], "kappa": [0.3, 0.7], "split": 1, '
MALFORMED = {
    "non-utf8": _HEADER + b'"blades": {"1": "exp(-x1^2)\xff"}}',
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "nan": _HEADER + b'"blades": {"1": "x1"}, "z": NaN}',
    "1e400": _HEADER + b'"blades": {"1": "x1"}, "z": 1e400}',
    "truncated": _HEADER + b'"blades": {"1": "x1"',
}


@pytest.mark.parametrize("kind", list(MALFORMED))
@pytest.mark.parametrize("command", ["transform", "convolve", "verify"])
def test_malformed_json_is_an_input_error(tmp_path, gauss_file, capsys, command, kind):
    # a non-UTF-8 or 10^5-deep file used to end in a traceback and exit 1
    bad = tmp_path / "bad.json"
    bad.write_bytes(MALFORMED[kind])
    argv = {
        "transform": ["transform", "--field", str(bad)],
        "convolve": ["convolve", "--field", str(gauss_file), "--field2", str(bad)],
        "verify": ["verify", "--config", str(bad)],
    }[command]
    rc = main(argv + ["--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert rc == 3 and not (tmp_path / "o.json").exists()
    assert err.startswith("input error: $: ") and err.count("\n") == 1


def test_a_document_too_deep_for_the_c_stack_is_an_input_error(tmp_path):
    # orjson builds nested values by recursion: parsed unguarded, 10^6
    # levels overflow the C stack and kill the process
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"[" * 1_000_000 + b"]" * 1_000_000)
    proc = subprocess.run(
        [sys.executable, "-m", "cliffdunkl.cli", "verify", "--config", str(bad)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("input error: $: ") and proc.stderr.count("\n") == 1


def test_explicit_translation_reads_only_the_input_grid(tmp_path, gauss_file):
    # |x y| up to 60 * 6, against the default --out-grid, used to break the
    # kernel radius of a plan the explicit method never reads
    out = tmp_path / "t.json"
    rc = main(["translate", "--field", str(gauss_file), "--z", "0.6,-0.4", "--method", "explicit",
               "--in-grid", "-60:60:1:48", "--out", str(out)])
    assert rc == 0
    got = load_field(out)
    assert [ax.L for ax in got.grid.axes] == [60.0, 60.0]
    # tau_z e^(-x^2) = e^(-(x^2 + z^2)) E_kappa(2 x, z) per axis, with
    # E_kappa(x, y) = 0F1(kappa + 1/2; (xy)^2/4) + xy/(2 kappa + 1) 0F1(kappa + 3/2; (xy)^2/4)
    want = np.ones(())
    for kappa, z, ax in zip((0.3, 0.7), (0.6, -0.4), got.grid.axes):
        t = 2.0 * ax.nodes * z
        E = hyp0f1(kappa + 0.5, t * t / 4.0) + t / (2.0 * kappa + 1.0) * hyp0f1(kappa + 1.5, t * t / 4.0)
        want = np.multiply.outer(want, np.exp(-(ax.nodes**2 + z * z)) * E)
    assert np.max(np.abs(got.values[..., 0] - want)) <= 1e-11 * np.max(np.abs(want))
    assert not got.values[..., 1:].any()


def test_explicit_translation_at_d3_on_the_default_grid_exits_4(tmp_path, capsys):
    # 96^3 points x (2 x 8)^3 branches is 3.6e9 field values at the lowest
    # psi order, over 2^30: refused before the probe, instead of minutes.
    # The field couples its coordinates, so it has no per-axis split
    field = tmp_path / "g3.json"
    field.write_text(json.dumps({"signature": [0, 3], "kappa": [0.3, 0.7, 0.5], "split": 1,
                                 "blades": {"1": "exp(-(x1+x2+x3)^2)"}}))
    start = time.perf_counter()
    rc = main(["translate", "--field", str(field), "--z", "0.6,-0.4,0.2", "--method", "explicit",
               "--out", str(tmp_path / "o.json")])
    assert time.perf_counter() - start < 5.0
    assert (rc, capsys.readouterr().err) == (4, (
        "numerical failure: explicit translation of 884736 points at psi order 8 costs 3623878656 "
        "field values, over the cap 1073741824; use --method spectral\n"))
    assert not (tmp_path / "o.json").exists()


def test_explicit_translation_of_a_product_field_at_d3_on_the_default_grid_runs(tmp_path):
    # the Gaussian is a product of one-coordinate factors, so it translates
    # one axis at a time: 3 x 96 x 16 factor values at psi order 8
    field = tmp_path / "g3.json"
    field.write_text(json.dumps({"signature": [0, 3], "kappa": [0.3, 0.7, 0.5], "split": 1,
                                 "blades": {"1": "exp(-(x1^2+x2^2+x3^2))"}}))
    outs = {}
    for method in ("explicit", "spectral"):
        out = tmp_path / f"{method}.json"
        assert main(["translate", "--field", str(field), "--z", "0.6,-0.4,0.2", "--method", method,
                     "--out-grid", "-9:9:1:48", "--out", str(out)]) == 0
        outs[method] = load_field(out)
    assert outs["explicit"].grid.shape == (96, 96, 96)
    assert rel_l2_error(outs["spectral"], outs["explicit"]) <= 1e-5


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


@pytest.mark.parametrize("flag,code", [("--alpha", 2), ("--beta", 2), ("--lambda", 2), ("--exponent", 0)])
def test_miyachi_infinite_rates_exit_2(gauss_file, capsys, flag, code):
    # an infinite alpha or beta overflows every rung of its condition to
    # Infinity, and lambda = inf passes |C| <= lambda vacuously; n = inf is
    # the documented exponent of the boundary case
    values = {"--alpha": "1", "--beta": "0.25", "--lambda": "3", flag: "inf"}
    rc = main(["miyachi", "--field", str(gauss_file), "--in-grid", "-6:6:1:16",
               *(x for kv in values.items() for x in kv)])
    assert rc == code
    assert ("usage error" in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize("rates,statuses", [
    (["--alpha", "800", "--beta", "0.0003125", "--lambda", "1", "--exponent", "inf"],
     ("growing", "finite")),
    (["--alpha", "1e308", "--beta", "1e308", "--lambda", "1"], ("growing", "growing")),
], ids=["boundary", "vanishing"])
def test_miyachi_writes_an_overflowed_rung_as_null(tmp_path, gauss_file, capsys, rates, statuses):
    # finite rates whose rung integrals overflow: the report stays strict
    # JSON that the package's own reader accepts
    out = tmp_path / "verdict.json"
    rc = main(["miyachi", "--field", str(gauss_file), "--in-grid", "-6:6:1:16", *rates,
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    doc = read_json(out)
    assert (doc["condition1"], doc["condition2"]) == statuses
    for rung in doc["ladder"]:
        for key, status in zip("IJ", statuses):
            assert (rung[key] is None) == (status == "growing")


# package exceptions that no command can raise, each with the reason
UNMAPPED_EXCEPTIONS = {
    "SignatureMismatch": "every command builds its fields and units in one signature",
    "RecurrenceBreakdown": "jacobi_recurrence hands gauss_from_recurrence only positive norms",
}


def test_every_package_exception_has_an_exit_code():
    mapped = cli._INPUT_ERRORS + cli._NUMERIC_ERRORS
    found = []
    for info in pkgutil.iter_modules(cliffdunkl.__path__):
        module = importlib.import_module(f"cliffdunkl.{info.name}")
        found += [cls for cls in vars(module).values() if inspect.isclass(cls)
                  and issubclass(cls, BaseException) and cls.__module__ == module.__name__]
    assert cli._Usage in found and len(found) > len(UNMAPPED_EXCEPTIONS) + 1
    unmapped = sorted(cls.__name__ for cls in found
                      if cls is not cli._Usage and not issubclass(cls, mapped))
    assert unmapped == sorted(UNMAPPED_EXCEPTIONS)


@pytest.mark.parametrize("config,code", [
    ({"rtol": -1}, 3),
    ({"kappa": [-1, 0]}, 3),
    ({"p": 0, "q": 3, "kappa": [0.3, 0.7, 0.5]}, 3),  # the ledger's fields are 2-D
    ({"split": 0}, 3),
    ([1, 2], 3),
    ({"kapa": [0.5, 0.5]}, 3),  # a misspelt key is not silently ignored
    ({"L_x": 18.0, "L_y": 18.0}, 4),  # beyond the kernel radius
    # delta used to reach the ledger unchecked: ZeroDivisionError tracebacks
    # at 0 and 1e300, a bare range error at 1e-300, and 28 claims at -1
    ({"delta": 0}, 3),
    ({"delta": -1}, 3),
    ({"delta": 1e300}, 4),  # the Gaussian vanishes on the grid
    ({"delta": 1e-300}, 4),  # its image constant (2 delta)^-2 overflows
])
def test_verify_config_errors(tmp_path, capsys, config, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert rc == code
    assert ("input error" if code == 3 else "numerical failure") in err
    assert "delta" not in config or "delta" in err  # the message names what failed


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


# -- the grid of a sampled field file and one admission rule ----------------


def _run(argv, tmp_path, gauss_file, capsys):
    """(exit code, stdout, stderr, whether O was written) of main() on argv,
    with S (tmp_path/s.json; an order-8 sampled file on -6:6:1:8 unless the
    test wrote another), F (an analytic file) and O (an output path)."""
    paths = {"S": tmp_path / "s.json", "F": gauss_file, "O": tmp_path / "o.json"}
    if not paths["S"].exists():
        paths["S"].write_text(json.dumps(_sampled_doc(0.5)))
    rc = main([str(paths.get(tok, tok)) for tok in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err, paths["O"].exists()


def test_in_grid_is_cross_checked_against_a_sampled_file(tmp_path, gauss_file, capsys):
    # the flag used to be ignored without a word for a sampled file
    for argv in (["transform", "--field", "S", "--in-grid", "-3:3:2:5", "--out", "O"],
                 ["inverse", "--field", "S", "--in-grid", "-6:6:1:8;-3:3:1:8",
                  "--out-grid", "-6:6:1:8", "--out", "O"]):
        rc, out, err, wrote = _run(argv, tmp_path, gauss_file, capsys)
        assert rc == 3 and not wrote and not out
        assert err.startswith("input error: grid: field file says ((6.0, 6.0), 1, 8), --in-grid says ((")
    for spec in ("-6:6:1:8", "-6:6:1:8;-6:6:1:8"):
        argv = ["transform", "--field", "S", "--in-grid", spec, "--out-grid", "-9:9:1:8", "--out", "O"]
        rc, _, err, wrote = _run(argv, tmp_path, gauss_file, capsys)
        assert rc == 0 and wrote and not err


def test_out_grid_disagreeing_with_a_sampled_file_names_the_file(tmp_path, gauss_file, capsys):
    # it used to blame --in-grid, which was never given
    argv = ["transform", "--field", "S", "--out-grid", "-6:6:1:16", "--out", "O"]
    rc, out, err, wrote = _run(argv, tmp_path, gauss_file, capsys)
    assert rc == 2 and not wrote and not out
    assert err == "usage error: the field file's grid and --out-grid must agree on panels and order\n"


@pytest.mark.parametrize("route", ["build_plan", "translate_explicit", "field_file", "check_growth",
                                   "build_plan_d1", "translate_explicit_d1", "field_file_d1",
                                   "check_growth_d1"])
def test_every_grid_is_admitted_by_one_rule(tmp_path, gauss_file, capsys, monkeypatch, route):
    # d = 2, order 3 on one panel: 6 x 6 nodes x 4 blades, one value over the
    # cap.  d = 1, order 5: 10 nodes x 2 blades pass a cap of 24, but 5 x 5
    # values per axis (a kernel quadrant, and at most the rule's Jacobi
    # matrix) do not; only `build_plan` used to refuse those
    def no_solve(*args, **kwargs):
        raise AssertionError("Golub-Welsch solve before the cap")

    route, d1 = route.removesuffix("_d1"), route.endswith("_d1")
    if d1:
        gauss_file = tmp_path / "g1.json"
        gauss_file.write_text(json.dumps({"signature": [0, 1], "kappa": [0.5], "split": 0,
                                          "blades": {"1": "exp(-x1^2)"}}))
        small = {"signature": [0, 1], "kappa": [0.5], "split": 0,
                 "grid": {"L": [3.0], "panels": 1, "order": 5}, "blades": {"1": [0.5] * 10}}
        cap, order, message = 24, 5, "5 x 5 values per axis, (panels x order)^2, exceeds cap 24"
    else:
        small = dict(_sampled_doc(0.5), grid={"L": [3.0, 3.0], "panels": 1, "order": 3},
                     blades={"1": [[0.5] * 6 for _ in range(6)]})
        cap, order, message = 6 * 6 * 4 - 1, 3, "36 nodes x 4 blades = 144 values exceeds cap 143"
    field = load_field(gauss_file)
    monkeypatch.setattr(quadrature, "NODE_CAP", cap)
    monkeypatch.setattr(quadrature, "gauss_from_recurrence", no_solve)
    monkeypatch.setattr(quadrature, "build_axis", no_solve)
    if route == "check_growth":
        with pytest.raises(NodeCountExceeded, match=re.escape(message)):
            check_growth(field, 1.0, 2.0, (2.0, 3.0, 4.0), panels=1, order=order)
        return
    (tmp_path / "s.json").write_text(json.dumps(small))
    spec = f"-3:3:1:{order}"
    argv = {
        "build_plan": ["transform", "--field", "F", "--in-grid", spec,
                       "--out-grid", f"-4:4:1:{order}", "--b", "e1", "--out", "O"],
        "translate_explicit": ["translate", "--field", "F", "--z", ",".join(["0.1", "0.2"][:field.sig.d]),
                               "--method", "explicit", "--in-grid", spec, "--out", "O"],
        "field_file": ["transform", "--field", "S", "--out-grid", spec, "--b", "e1", "--out", "O"],
    }[route]
    rc, out, err, wrote = _run(argv, tmp_path, gauss_file, capsys)
    assert (rc, out, err, wrote) == (4, "", f"numerical failure: {message}\n", False)


@pytest.mark.parametrize("argv,named", [
    (["transform", "--field", "F", "--in-grid", "-1e200:1e200:1:4", "--out-grid", "-1:1:1:4",
      "--out", "O"], "quadrature weights overflow for kappa = 0.3 on (-1e+200, 1e+200)"),
    (["eigencheck", "--sig", "0,2", "--kappa", "0.3,0.7", "--v", "0", "--u", "0",
      "--in-grid", "-1e200:1e200:1:4", "--out-grid", "-1:1:1:4"],
     "quadrature weights overflow for kappa = 0.3 on (-1e+200, 1e+200)"),
    (["miyachi", "--field", "F", "--alpha", "1", "--beta", "1", "--lambda", "1",
      "--ladder", "1e300,2e300,3e300"], "quadrature weights overflow for kappa = 0.3 on (-3e+300, 3e+300)"),
    (["verify", "--config", "C", "--out", "O"],
     "quadrature weights overflow for kappa = 0.3 on (-1e+200, 1e+200)"),
    (["kernel", "--kappa", "1e200", "--t", "1"], "kernel rule for kappa = 1e+200: "),
    (["kernel", "--kappa", "1e80", "--t", "1"], "kernel rule for kappa = 1e+80: "),
    (["translate", "--field", "D1", "--method", "explicit", "--b", "e1", "--z", "0.5", "--out", "O"],
     "quadrature weights overflow for kappa = 100000.0 on (-6.0, 6.0)"),
], ids=["transform", "eigencheck", "miyachi", "verify", "kernel", "kernel-norms", "translate-explicit"])
def test_in_range_parameters_that_overflow_name_kappa_or_L(tmp_path, gauss_file, capsys, argv, named):
    # these ended in "(34, 'Numerical result out of range')" or "math range
    # error", and kernel --kappa 1e80 in a RecurrenceBreakdown traceback
    paths = {"F": gauss_file, "C": tmp_path / "c.json", "D1": tmp_path / "d1.json",
             "O": tmp_path / "o.json"}
    paths["C"].write_text(json.dumps({"L_x": 1e200}))
    paths["D1"].write_text(json.dumps({"signature": [0, 1], "kappa": [1e5], "split": 0,
                                       "blades": {"1": "exp(-x1^2)"}}))
    rc = main([str(paths.get(tok, tok)) for tok in argv])
    captured = capsys.readouterr()
    assert (rc, captured.out, paths["O"].exists()) == (4, "", False)
    assert captured.err.startswith(f"numerical failure: {named}") and captured.err.count("\n") == 1


@pytest.mark.parametrize("key,value", [
    ("kappa", [True, 0.5]), ("split", True), ("signature", [False, 2]), ("signature", [0, 2.0]),
    ("grid.panels", True), ("grid.order", True), ("grid.L", [6.0, True]),
])
def test_json_booleans_are_no_numbers_in_a_field_file(tmp_path, gauss_file, capsys, key, value):
    # `"split": true` used to pass as 1, and the file written after it said so
    doc = _sampled_doc(0.5)
    *parents, leaf = key.split(".")
    (doc[parents[0]] if parents else doc)[leaf] = value
    (tmp_path / "s.json").write_text(json.dumps(doc))
    argv = ["transform", "--field", "S", "--out-grid", "-6:6:1:8", "--out", "O"]
    rc, out, err, wrote = _run(argv, tmp_path, gauss_file, capsys)
    assert rc == 3 and not wrote and not out
    assert err.startswith(f"input error: {key}: ") and err.count("\n") == 1


@pytest.mark.parametrize("config,keys", [
    ({"order": 16.9, "L_x": "6", "L_y": True}, ["L_x", "L_y", "order"]),
    ({"order": True}, ["order"]), ({"panels": "1"}, ["panels"]), ({"p": 0.0}, ["p"]),
    ({"kappa": [True, 0.7]}, ["kappa"]), ({"z": ["0.6", -0.4]}, ["z"]), ({"z": 0.6}, ["z"]),
    ({"rtol": None}, ["rtol"]), ({"delta": False}, ["delta"]), ({"a": 1}, ["a"]),
])
def test_verify_config_values_of_another_kind_exit_3(tmp_path, capsys, config, keys):
    # {"order": 16.9, "L_x": "6", "L_y": true} used to run with order 16,
    # L_x = 6 and L_y = 1 and flag 14 claims
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert rc == 3 and not (tmp_path / "r.json").exists()
    assert err == f"input error: config: ledger settings {keys} differ in kind from their defaults\n"
