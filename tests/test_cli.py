import json

import numpy as np
import pytest

from kreincalc import cli
from kreincalc.cli import main
from kreincalc.instances import matrix_from_json

from conftest import FIXTURES

W1 = str(FIXTURES / "w1.json")
W2 = str(FIXTURES / "w2.json")


def run(*argv):
    return main(list(argv))


def test_generate_then_verify(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert run("generate", "--seed", "4", "--n", "5", "--profile", "jordan",
               "--output", str(out)) == 0
    assert run("verify", "--input", str(out)) == 0
    text = capsys.readouterr().out
    assert "verdict: PASS" in text


def test_one_parser_serves_successive_calls(tmp_path, capsys):
    inst, report = tmp_path / "inst.json", tmp_path / "report.json"
    assert run("generate", "--seed", "3", "--n", "4", "--profile", "pontryagin",
               "--output", str(inst)) == 0
    assert run("verify", "--input", str(inst), "--format", "json", "--tol-scale", "2",
               "--output", str(report)) == 0
    assert json.loads(report.read_text())["properties"]
    assert run("inspect", "--input", str(inst)) == 0
    # text on stdout: neither --format json nor --output carried over
    assert capsys.readouterr().out.startswith("label: pontryagin-n4-seed3\n")
    parser = cli._parser()
    assert cli._parser() is parser
    args = parser.parse_args(["inspect", "--input", str(inst)])
    assert (args.format, args.output, args.tol_scale) == ("text", None, 1.0)
    assert not any(hasattr(args, a) for a in ("seed", "n", "profile", "function", "region"))


def test_main_leaves_numpy_print_options_alone(capsys):
    # in-process callers keep their own print options: main sets none
    with np.printoptions(precision=3, suppress=True):
        before = np.get_printoptions()
        for command in ("inspect", "verify", "spectrum"):
            assert run(command, "--input", W2) == 0
        assert np.get_printoptions() == before
    capsys.readouterr()


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("generate", "--seed", "9", "--n", "4", "--profile", "diagonal", "--output", str(a))
    run("generate", "--seed", "9", "--n", "4", "--profile", "diagonal", "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_inspect(capsys):
    assert run("inspect", "--input", W1, "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 2
    assert payload["signature"] == [1, 1]
    assert payload["p"] == [0.0, 1.0]


def test_spectrum(capsys):
    assert run("spectrum", "--input", W2, "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spectrum"] == [[0.0, 0.0]]
    assert payload["critical"][0]["shape"] == [2, 1]


def test_embed_emits_factors(capsys):
    assert run("embed", "--input", W1, "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    F = matrix_from_json(payload["F"], "F")
    assert np.allclose(F, np.diag([np.sqrt(2), 1.0]))


def test_apply_function_file(tmp_path, capsys):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"kind": "bipoly", "coeffs": [[1, 0, 1, 0], [0, 1, 0, 1]]}))
    assert run("apply", "--input", W1, "--function", str(fn), "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    out = matrix_from_json(payload["result"], "result")
    assert np.allclose(out, np.diag([1 + 2j, -1 + 3j]), atol=1e-10)


def test_project_inline_region(capsys):
    region = json.dumps({"type": "disk", "center": [1, 2], "radius": 1.0})
    assert run("project", "--input", W1, "--region", region, "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    out = matrix_from_json(payload["result"], "result")
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_verify_json_schema(capsys):
    assert run("verify", "--input", W1, "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"instance", "properties", "elapsed_ms"}
    assert all(p["pass"] for p in payload["properties"])


def test_verify_exit_one_when_verdicts_fail(tmp_path, capsys):
    out = tmp_path / "inst.json"
    run("generate", "--seed", "55", "--n", "8", "--profile", "jordan",
        "--output", str(out))
    # tolerances scaled far below attainable accuracy force failing verdicts
    assert run("verify", "--input", str(out), "--tol-scale", "1e-6") == 1
    assert "FAIL" in capsys.readouterr().out


def test_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "J": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        "N": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
    }))
    assert run("verify", "--input", str(bad)) == 2
    assert "error:" in capsys.readouterr().err


def test_non_finite_entry_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"J": [[[NaN, 0]]], "N": [[[1, 0]]], "p": [1], "q": [1]}')
    assert run("inspect", "--input", str(bad)) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["verify", "--input", W1], ["generate", "--seed", "1", "--n", "3"]]
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    # for verify, exit 1 would mean a failing property
    out = tmp_path / "missing" / "out.json"
    assert run(*argv, "--output", str(out)) == 2
    assert f"error: cannot write {out}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--input", "{missing}"],
        ["verify", "--input", "{malformed}"],
        ["apply", "--input", W1, "--function", "{malformed}"],
        ["apply", "--input", W1, "--function", "{missing}"],
        ["apply", "--input", W1, "--function", '{"kind": "delta", "at": [1]}'],
        ["project", "--input", W1, "--region", '{"type": "disk"}'],
    ],
)
def test_unreadable_files_exit_2(tmp_path, capsys, argv):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"J": [[[1, 0]]')
    files = {"{missing}": str(tmp_path / "missing.json"), "{malformed}": str(malformed)}
    assert run(*[files.get(a, a) for a in argv]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "region",
    [
        '{"type": "disk", "center": [1, 2], "radius": NaN}',
        '{"type": "disk", "center": [1, 2], "radius": -1.0}',
        '{"type": "disk", "center": [NaN, 2], "radius": 1.0}',
        '{"type": "rect", "x": [2, 0], "y": [1, 3]}',
    ],
)
def test_malformed_region_exits_2(capsys, region):
    assert run("project", "--input", W1, "--region", region) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--input", W1, "--seed", "1"],
        ["inspect", "--input", W1, "--function", '{"kind": "nonsense"}'],
        ["spectrum", "--input", W1, "--region", "x"],
    ],
)
def test_flags_of_other_subcommands_exit_2(capsys, argv):
    # --seed belongs to generate, --function to apply, --region to project
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_input_errors(capsys):
    assert run("inspect") == 2


def test_tol_scale_flag(capsys):
    assert run("inspect", "--input", W1, "--tol-scale", "10", "--format", "json") == 0


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_bad_tol_scale_exits_2(capsys, scale):
    assert run("inspect", "--input", W1, "--tol-scale", scale) == 2
    assert "tolerance scale" in capsys.readouterr().err


def test_spectrum_reports_cluster_warnings(tmp_path, capsys):
    # eigenvalues 2.5 cluster radii apart: two clusters, flagged as close
    d = 2.5e-7 * (1 + 2.5e-7)
    inst = tmp_path / "close.json"
    inst.write_text(json.dumps({
        "J": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        "N": [[[0, 0], [0, 0]], [[0, 0], [d, 0]]],
        "p": [1.0],
        "q": [1.0],
    }))
    assert run("spectrum", "--input", str(inst), "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["transferred_spectrum"]) == 2
    assert len(payload["cluster_warnings"]) == 1
    assert "are only 2.50e-07 apart" in payload["cluster_warnings"][0]
    assert run("spectrum", "--input", W1, "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["cluster_warnings"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--input", W1],
        ["verify", "--input", W2],
        ["spectrum", "--input", W2],
        ["inspect", "--input", W1],
        ["apply", "--input", W1, "--function",
         '{"kind": "bipoly", "coeffs": [[1, 0, 1.0, 0.0], [0, 1, 0.0, 1.0]]}'],
        ["embed", "--input", W1],
    ],
)
def test_json_output_parses_as_the_stdlib_encoding(monkeypatch, tmp_path, argv):
    # the payload each command writes, encoded as before by json.dumps with
    # indent 1, must parse to the same object as the orjson output
    payloads = []
    encode = cli.orjson.dumps

    def recorded(payload, **kwargs):
        payloads.append(payload)
        return encode(payload, **kwargs)

    monkeypatch.setattr(cli.orjson, "dumps", recorded)
    out = tmp_path / "out.json"
    assert run(*argv, "--format", "json", "--output", str(out)) == 0
    text = out.read_text()
    assert text.startswith('{\n  "') and text.endswith("}\n")
    (payload,) = payloads
    assert json.loads(text) == json.loads(json.dumps(payload, indent=1, sort_keys=True))
