import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multiprover
from multiprover.cli import main
from multiprover.linalg import DIM_CAP

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- optimize -------------------------------------------------------------------


def test_optimize_canonical(capsys):
    doc = run_json(capsys, "optimize", f"{DATA}/entangled_accept.json")
    assert doc["command"] == "optimize"
    assert doc["result"]["value"] == pytest.approx(0.5, abs=1e-8)
    assert "meta" in doc
    assert doc["meta"]["seed"] == 0


def test_optimize_no_meta_strips_environment(capsys):
    doc = run_json(capsys, "optimize", f"{DATA}/entangled_accept.json", "--no-meta")
    assert "meta" not in doc


def test_optimize_with_oracle_check(capsys):
    doc = run_json(
        capsys,
        "optimize",
        f"{DATA}/entangled_accept.json",
        "--oracle-samples",
        "3000",
        "--no-meta",
    )
    assert doc["oracle_value"] == pytest.approx(0.5, abs=1e-4)
    assert doc["oracle_gap"] <= 1e-4


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_optimize_rejects_non_positive_oracle_samples(capsys, samples):
    code, out, err = run_cli(
        capsys, "optimize", f"{DATA}/entangled_accept.json", "--oracle-samples", samples
    )
    assert code == 2
    assert out == ""
    assert "need at least one sample" in err


def test_deterministic_output_bytes():
    # identical invocations must produce identical bytes once the timestamp
    # metadata is suppressed
    cmd = [
        sys.executable,
        "-m",
        "multiprover.cli",
        "optimize",
        f"{DATA}/entangled_accept.json",
        "--seed",
        "7",
        "--no-meta",
    ]
    # the child must import the same package the rest of the suite tests
    pkg_parent = str(Path(multiprover.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_parent, env.get("PYTHONPATH")) if p
    )
    a = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=env)
    b = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=env)
    assert a.returncode == b.returncode == 0, (a.stderr, b.stderr)
    assert a.stdout == b.stdout
    assert len(a.stdout) > 0


def test_csv_format(capsys):
    code, out, err = run_cli(
        capsys,
        "optimize",
        f"{DATA}/entangled_accept.json",
        "--format",
        "csv",
        "--no-meta",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("result.value,") for line in lines)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "res.json"
    code, out, _ = run_cli(
        capsys,
        "optimize",
        f"{DATA}/entangled_accept.json",
        "--out",
        str(target),
        "--no-meta",
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["result"]["value"] == pytest.approx(0.5, abs=1e-8)


def test_max_dim_enforced(capsys):
    code, _, err = run_cli(
        capsys, "optimize", f"{DATA}/entangled_accept.json", "--max-dim", "2"
    )
    assert code == 3
    assert "max-dim" in err


@pytest.mark.parametrize("value", ["0", "-3", str(DIM_CAP + 1)])
def test_max_dim_outside_one_to_dim_cap_is_rejected(capsys, value):
    # above DIM_CAP the library's own cap would apply, not the requested one
    code, out, err = run_cli(
        capsys, "optimize", f"{DATA}/entangled_accept.json", "--max-dim", value
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --max-dim must be between 1 and {DIM_CAP}, got {value}\n"


def test_max_dim_at_dim_cap_is_accepted(capsys):
    # the other end, --max-dim 1, is test_encode_max_dim
    at_cap = run_json(
        capsys, "encode", f"{DATA}/plus_state.json", "--max-dim", str(DIM_CAP), "--no-meta"
    )
    assert at_cap == run_json(capsys, "encode", f"{DATA}/plus_state.json", "--no-meta")


# -- oracle ---------------------------------------------------------------------


def test_oracle_subcommand(capsys):
    doc = run_json(
        capsys,
        "oracle",
        f"{DATA}/entangled_accept.json",
        "--samples",
        "3000",
        "--no-meta",
    )
    assert doc["value"] == pytest.approx(0.5, abs=1e-4)
    assert doc["samples"] == 3000


def test_oracle_honors_max_dim(capsys):
    code, _, err = run_cli(
        capsys, "oracle", f"{DATA}/entangled_accept.json", "--max-dim", "3"
    )
    assert code == 3


# -- parrep ---------------------------------------------------------------------


def test_parrep_self_pair(capsys):
    doc = run_json(capsys, "parrep", f"{DATA}/entangled_accept_sep1.json", "--no-meta")
    assert doc["verdict"] == "perfect"
    assert doc["v1"] == pytest.approx(0.5, abs=1e-6)
    assert doc["v"] == pytest.approx(0.25, abs=1e-3)
    assert doc["witness_min"] >= -1e-9


def test_parrep_two_files(capsys):
    doc = run_json(
        capsys,
        "parrep",
        f"{DATA}/classical_corr.json",
        f"{DATA}/random_sep_2x2.json",
        "--no-meta",
    )
    assert doc["verdict"] == "perfect"
    assert abs(doc["v"] - doc["v1"] * doc["v2"]) <= 1e-3


def test_parrep_repeat_chain(capsys):
    doc = run_json(
        capsys,
        "parrep",
        f"{DATA}/entangled_accept_sep1.json",
        "--repeat",
        "3",
        "--no-meta",
    )
    assert doc["repeat"] == 3
    assert doc["v_single"] == pytest.approx(0.5, abs=1e-8)
    assert doc["v_repeated"] == pytest.approx(0.125, abs=1e-6)
    assert doc["v_single_pow_k"] == pytest.approx(0.125, abs=1e-6)
    assert doc["verdict"] == "perfect"


@pytest.mark.parametrize(
    "second", ["random_sep_2x2.json", "entangled_accept_sep1.json"], ids=["2-party", "same"]
)
def test_parrep_repeat_takes_no_second_instance(capsys, second):
    # --repeat K > 1 pairs the first instance with itself; a second one
    # (here 1-party with 2-party, which exits 4 without --repeat) is an error
    code, out, err = run_cli(
        capsys,
        "parrep",
        f"{DATA}/entangled_accept_sep1.json",
        f"{DATA}/{second}",
        "--repeat",
        "2",
    )
    assert code == 2
    assert out == ""
    assert "--repeat 2" in err and "second instance" in err


def test_parrep_party_mismatch_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "parrep",
        f"{DATA}/entangled_accept_sep1.json",
        f"{DATA}/classical_corr.json",
    )
    assert code == 4
    assert "party" in err.lower()


def test_parrep_max_dim(capsys):
    code, _, _ = run_cli(
        capsys,
        "parrep",
        f"{DATA}/classical_corr.json",
        "--repeat",
        "4",
        "--max-dim",
        "64",
    )
    assert code == 3


# -- bellqma ----------------------------------------------------------------------


def test_bellqma_honest_scaled(capsys):
    doc = run_json(
        capsys,
        "bellqma",
        f"{DATA}/protocol_m2r2.json",
        "--merlin",
        "honest",
        "--p",
        "20",
        "--k",
        "4000",
        "--q",
        "10",
        "--alpha",
        "16",
        "--trials",
        "100",
        "--no-meta",
    )
    assert doc["params"] == {"p": 20, "k": 4000, "q": 10, "alpha": 16}
    assert doc["estimate"]["mean"] >= 0.95
    assert doc["estimate"]["trials"] == 100
    assert 0.0 < doc["bounds"]["soundness"] < 1.0


def test_bellqma_lying_preset(capsys):
    doc = run_json(
        capsys,
        "bellqma",
        f"{DATA}/protocol_m2r2.json",
        "--merlin",
        "lying-x",
        "--p",
        "20",
        "--k",
        "4000",
        "--q",
        "10",
        "--alpha",
        "16",
        "--trials",
        "100",
        "--no-meta",
    )
    # claims all weight on outcome 0 while holding maximally mixed proofs:
    # the frequency test rejects essentially always
    assert doc["estimate"]["mean"] <= 0.05


def test_bellqma_trial_csv(tmp_path, capsys):
    rows = tmp_path / "trials.csv"
    run_json(
        capsys,
        "bellqma",
        f"{DATA}/protocol_m2r2.json",
        "--merlin",
        "honest",
        "--p",
        "20",
        "--k",
        "2000",
        "--q",
        "10",
        "--alpha",
        "16",
        "--trials",
        "20",
        "--trial-csv",
        str(rows),
        "--no-meta",
    )
    lines = rows.read_text().splitlines()
    assert lines[0] == "trial,accepted,rejection_stage,j,i,n_ji"
    assert len(lines) == 21


def test_bellqma_mixed_y_guard(capsys):
    # mixed-y builds one group per eigenstate, so the derived k = 2 560 000
    # runs as it is
    doc = run_json(
        capsys,
        "bellqma",
        f"{DATA}/protocol_m2r2.json",
        "--merlin",
        "mixed-y",
        "--trials",
        "5",
        "--no-meta",
    )
    assert doc["params"]["k"] == 2560000
    assert doc["estimate"]["trials"] == 5


def test_bellqma_default_trials(capsys):
    doc = run_json(capsys, "bellqma", f"{DATA}/protocol_m2r2.json", "--no-meta")
    assert doc["estimate"]["trials"] == 1000


@pytest.mark.parametrize(
    "argv",
    [
        ("optimize", f"{DATA}/entangled_accept.json", "--trials", "5"),
        ("encode", f"{DATA}/plus_state.json", "--tol", "1"),
    ],
)
def test_subcommands_reject_flags_they_do_not_read(capsys, argv):
    # argparse's parse-error code is returned, not raised
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {argv[-2]}" in err


@pytest.mark.parametrize("argv", [("--help",), ("parrep", "--help")])
def test_help_returns_zero(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("usage:")
    assert err == ""


def test_bellqma_k_above_63_bits(capsys):
    # the copy count is a 63-bit sampler argument; one above it is a
    # capacity error that names the limit, not numpy's conversion error
    for k in (2 ** 63, 10 ** 30):
        code, out, err = run_cli(
            capsys, "bellqma", f"{DATA}/protocol_m2r2.json", "--k", str(k), "--trials", "5"
        )
        assert code == 3
        assert out == ""
        assert f"k = {k}" in err and "63-bit sampling limit" in err
    doc = run_json(
        capsys, "bellqma", f"{DATA}/protocol_m2r2.json", "--k", str(2 ** 63 - 1),
        "--trials", "2", "--no-meta",
    )
    assert doc["params"]["k"] == 2 ** 63 - 1


def test_bellqma_mixed_y_small_k(capsys):
    doc = run_json(
        capsys,
        "bellqma",
        f"{DATA}/protocol_m2r2.json",
        "--merlin",
        "mixed-y",
        "--p",
        "20",
        "--k",
        "2000",
        "--q",
        "10",
        "--alpha",
        "16",
        "--trials",
        "50",
        "--no-meta",
    )
    assert doc["estimate"]["mean"] >= 0.9


# -- encode -----------------------------------------------------------------------


def test_encode_plus_state(capsys):
    doc = run_json(
        capsys, "encode", f"{DATA}/plus_state.json", "--bits", "20", "--no-meta"
    )
    assert doc["register_hex"] == "0b504f0000000b504f000000"
    assert doc["error_bound"] == pytest.approx(2.0 ** -20, rel=1e-12)
    assert doc["measured_error"] <= doc["error_bound"]


def test_encode_with_plan(capsys):
    doc = run_json(
        capsys,
        "encode",
        f"{DATA}/plus_state.json",
        "--bits",
        "20",
        "--plan",
        "--no-meta",
    )
    assert doc["plan"]["dimension"] == 2
    assert doc["plan_error"] <= 1e-10
    theta = doc["plan"]["rotations"][0][2]
    assert theta == pytest.approx(0.7853981633974483, abs=1e-9)


def test_encode_max_dim(capsys):
    code, _, _ = run_cli(
        capsys, "encode", f"{DATA}/plus_state.json", "--max-dim", "1"
    )
    assert code == 3


# -- error handling ----------------------------------------------------------------


def test_missing_file_is_parse_error(capsys):
    code, _, err = run_cli(capsys, "optimize", "no_such_file.json")
    assert code == 2
    assert "error:" in err


def test_malformed_json_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, "optimize", str(bad))
    assert code == 2


def test_wrong_document_shape_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "wrong.json"
    bad.write_text(json.dumps({"dims": [2]}))
    code, _, _ = run_cli(capsys, "optimize", str(bad))
    assert code == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["oracle", "optimize"])
def test_non_finite_operator_is_parse_error(tmp_path, capsys, bad, command):
    doc = json.loads((DATA / "entangled_accept.json").read_text())
    doc["re"][0][0] = bad
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, str(path), "--no-meta")
    assert code == 2, err
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_stage2_table_is_parse_error(tmp_path, capsys, bad):
    doc = json.loads((DATA / "protocol_m2r2.json").read_text())
    doc["stage2"] = {"kind": "table", "table": [[bad, 1.0], [1.0, 1.0]]}
    path = tmp_path / "non_finite_table.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "bellqma", str(path), "--trials", "5", "--no-meta")
    assert code == 2, err
    assert out == ""
    assert "finite" in err


def test_main_looks_up_the_handler_on_every_call(capsys, monkeypatch):
    import multiprover.cli as cli

    state = str(DATA / "plus_state.json")
    first = run_json(capsys, "encode", state, "--bits", "8", "--no-meta")
    assert first["command"] == "encode"
    monkeypatch.setattr(cli, "cmd_encode", lambda args: {"command": "patched", "bits": args.bits})
    second = run_json(capsys, "encode", state, "--bits", "8", "--no-meta")
    assert second == {"bits": 8, "command": "patched"}


def test_deeply_nested_json_is_parse_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "optimize", str(deep))
    assert code == 2
    assert out == ""
    assert "nested too deeply" in err


@pytest.mark.parametrize("dims", [[True, 4], [2.5, 1.6], ["2", "2"], [2.0, 2.0]])
def test_non_integer_dims_are_parse_error(tmp_path, capsys, dims):
    doc = json.loads((DATA / "entangled_accept.json").read_text())
    doc["dims"] = dims
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "optimize", str(path), "--no-meta")
    assert code == 2, err
    assert out == ""
    assert "must be integers" in err and repr(dims[0]) in err


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_parrep_repeat_below_one_is_parse_error(capsys, repeat):
    code, out, err = run_cli(
        capsys, "parrep", f"{DATA}/entangled_accept_sep1.json", "--repeat", repeat, "--no-meta"
    )
    assert code == 2
    assert out == ""
    assert "--repeat" in err


def test_encode_bits_limit(capsys):
    state = f"{DATA}/plus_state.json"
    doc = run_json(capsys, "encode", state, "--bits", "1023", "--plan", "--no-meta")
    assert doc["precision_bits"] == 1023
    for bits in ("1024", "100000"):
        code, out, err = run_cli(capsys, "encode", state, "--bits", bits, "--no-meta")
        assert code == 2
        assert out == ""
        assert "--bits limit of 1023" in err


def test_encode_default_precision_beyond_bits_limit(tmp_path, capsys):
    # the default precision is 20 N bits, so N = 52 asks for 1040
    path = tmp_path / "basis52.json"
    path.write_text(json.dumps({"dims": [52], "re": [1.0] + [0.0] * 51, "im": [0.0] * 52}))
    code, out, err = run_cli(capsys, "encode", str(path), "--no-meta")
    assert code == 2
    assert out == ""
    assert "1040" in err and "--bits limit of 1023" in err


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_parrep_bad_tol_is_parse_error(capsys, tol):
    code, out, err = run_cli(
        capsys, "parrep", f"{DATA}/classical_corr.json", "--tol", tol, "--no-meta"
    )
    assert code == 2
    assert out == ""
    assert "--tol" in err


@pytest.mark.parametrize(
    "field, value", [("n", 2.7), ("m", True), ("r", 2.0), ("n", "1")]
)
def test_non_integer_protocol_field_is_parse_error(tmp_path, capsys, field, value):
    doc = json.loads((DATA / "protocol_m2r2.json").read_text())
    doc[field] = value
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "bellqma", str(path), "--trials", "5", "--no-meta")
    assert code == 2
    assert out == ""
    assert f"protocol field {field!r} must be an integer" in err and repr(value) in err
