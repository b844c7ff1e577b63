"""CLI behavior: artifacts, determinism, exit codes, negative controls."""

import argparse
import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from godeaux2 import cli, verify
from godeaux2.cli import main
from godeaux2.pipeline import write_artifacts

ROOT = Path(__file__).resolve().parents[1]


def test_pipeline_writes_artifacts(tmp_path, run11):
    out = tmp_path / "out"
    rc = main(["pipeline", "--alpha", "1", "--c", "1", "--out", str(out)])
    assert rc == 0
    for name in ("alpha.json", "equations.json", "deps.log", "stats.json"):
        assert (out / name).exists()
    alpha = json.loads((out / "alpha.json").read_text())
    assert alpha["case"] == {"alpha": 1, "c": 1}
    assert alpha["survivors"] == ["g9", "b2", "b5", "b6", "b8", "b9", "b11", "b12", "d"]
    assert len(alpha["matrix"]) == 6
    eqs = json.loads((out / "equations.json").read_text())
    assert len(eqs["equations"]) == 21
    stats = json.loads((out / "stats.json").read_text())
    assert stats["initial_f"] == 876
    assert stats["distinct_parameters"] == 394
    assert stats["wall_time_s"] > 0
    assert stats["peak_memory_kb"] > 0


def test_artifacts_byte_deterministic(tmp_path, run11):
    a, b = tmp_path / "a", tmp_path / "b"
    write_artifacts(run11, a)
    write_artifacts(run11, b)
    for name in ("alpha.json", "equations.json", "deps.log"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_deps_log_format(tmp_path, run11):
    out = tmp_path / "deps"
    write_artifacts(run11, out)
    lines = (out / "deps.log").read_text().splitlines()
    assert len(lines) == len(run11.elim.deps)
    assert all(" := " in line for line in lines)


def test_pipeline_rounds_option_is_inert(tmp_path, run11):
    # --max-rounds is accepted and ignored: the elimination stops at its
    # first idle round, so even a cap of 0 derives the golden family
    out = tmp_path / "a11"
    rc = main(
        ["pipeline", "--alpha", "1", "--c", "1", "--out", str(out), "--max-rounds", "0"]
    )
    assert rc == 0
    assert (out / "alpha.json").read_text() == verify.GOLDEN_FILES["alpha.json"].read_text()


def test_verify_selected_checks():
    assert main(["verify", "--check", "excluded_diagonal_rc", "--check", "y2_quartic_coefficient"]) == 0


def test_verify_runs_a_check_named_twice_once(capsys):
    names = ["y2_quartic_coefficient", "excluded_diagonal_rc", "y2_quartic_coefficient"]
    assert main(["verify"] + [arg for name in names for arg in ("--check", name)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == names[:2]  # the order first named


def test_r_removal_verdict_is_seed_independent(capsys, run11):
    lines = []
    for seed in ("0", "7"):
        assert main(["verify", "--check", "r_removal", "--seed", seed]) == 0
        name, status, _timing, note = capsys.readouterr().out.split(maxsplit=3)
        lines.append((name, status, note.strip()))
    assert lines[0] == lines[1]
    assert lines[0][:2] == ("r_removal", "pass")
    assert lines[0][2] == "all 94 r-coefficients certified by exact cofactors over Q[moduli]"


def test_verify_unknown_check_is_usage_error(capsys):
    assert main(["verify", "--check", "nonsense"]) == 2
    # with "all" given as well, the unknown name is still reported, and no check runs
    assert main(["verify", "--check", "all", "--check", "no_such_check"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unknown checks: no_such_check" in err


def test_verify_corrupted_golden_fails(tmp_path, monkeypatch):
    # the pristine file passes
    assert main(["verify", "--check", "golden_file"]) == 0
    golden = tmp_path / "alpha_1_1.json"
    data = json.loads(verify.GOLDEN_FILES["alpha.json"].read_text())
    data["matrix"][0][0]["text"] = "0"
    golden.write_text(json.dumps(data, indent=1) + "\n")
    monkeypatch.setitem(verify.GOLDEN_FILES, "alpha.json", golden)
    assert main(["verify", "--check", "golden_file"]) == 1


# each option a caller outside the tests sets (README, perfbench, scripts);
# an option only tests would set does not belong on the command line
CLI_OPTIONS = {
    "pipeline": {"--alpha", "--c", "--out", "--max-rounds"},
    "verify": {"--check", "--seed"},
}


def test_cli_option_sets_are_pinned():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert got == CLI_OPTIONS


def test_special_by_and_bf(run11, capsys):
    assert main(["verify", "--check", "special_by", "--check", "special_bf"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["special_by", "pass"], ["special_bf", "pass"]]


# (name, status, note) of every check `godeaux2 verify` reports, at any
# --seed, in its (sorted) order
VERIFY_REPORTS = [
    ("alpha2_basepoint", "pass", "all 21 equations vanish identically (symbolic parameters)"),
    (
        "alpha3_square",
        "pass",
        "raw generic det = -(...)^2, so is every specialisation; alpha_1 c=1 control is not a square",
    ),
    ("c_normalization", "pass", "c = s^4 rescales to c = 1; borders keep their x factors"),
    ("central_minors", "pass", "all 3x3 minors divide by Q, det by Q^2"),
    ("closed_form_rc", "pass", "rank condition solvable; all 15 residuals vanish"),
    ("excluded_diagonal_rc", "pass", "all 21 cofactor identities hold"),
    (
        "extension_cases_1_2",
        "skipped",
        "the case-1/2 normalizations need rational-function entries"
        " (r^2 = c5^2/(c5^2 - d^2 c6^2)); out of scope by design",
    ),
    ("extension_shuffle", "pass", "P' unimodular; j=2 shape symbolically, j=3 at d=0"),
    ("golden_file", "pass", ""),
    ("golden_match", "pass", "back-substituted entries equal the closed form"),
    ("imaginary_unit_congruence", "pass", "denominators cleared by 2d per factor (overall 4d^2)"),
    ("quartic_root_congruence", "pass", "cleared by d^2 per factor (overall d^6)"),
    ("r_removal", "pass", "all 94 r-coefficients certified by exact cofactors over Q[moduli]"),
    (
        "restriction_cofactors_1",
        "pass",
        "closed-form cofactor identities hold; case-1 specialization gives (Q, 0, 0)",
    ),
    ("restriction_cofactors_2", "pass", "closed-form cofactor identities hold"),
    ("restriction_cofactors_3", "pass", "closed-form cofactor identities hold"),
    ("scaling", "pass", "every term of det has weight 0: 2w per parameter, -1 per x, -2 per y3"),
    (
        "special_bf",
        "pass",
        "matrix pattern, det != 0, conic divisibility, 21 equations over Q(sqrt(-15))",
    ),
    ("special_by", "pass", "matrix pattern, det != 0, conic divisibility, 21 equations over Q"),
    ("y2_quartic_coefficient", "pass", "coefficient equals (r1*r4 - r2*r3)^2"),
]

# one report line of cmd_verify: name, status, timing, then the note if any
REPORT_LINE = re.compile(r"(\S+) +(\S+) +\d+\.\d+s(?:  (.*))?")


def test_verify_reports_are_pinned(run11, run20, capsys):
    # --seed is accepted and ignored: no check draws random points
    for seed in ("3", "0", "7"):
        assert main(["verify", "--seed", seed]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [REPORT_LINE.fullmatch(line).groups("") for line in lines] == VERIFY_REPORTS


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_pipeline_deep_ladder_case(tmp_path, run20):
    out = tmp_path / "a20"
    rc = main(["pipeline", "--alpha", "2", "--c", "0", "--out", str(out)])
    assert rc == 0
    eqs = json.loads((out / "equations.json").read_text())
    assert eqs["variables"][3] == "y4"  # the j=2 chart keeps y4, not y3
    assert len(eqs["equations"]) == 21


# (lines, sha256) of residual_f.txt for each case that stalls; the r-slot
# numbering feeds both stalls, so a renumbered ansatz changes these bytes
STALL_DUMPS = {
    (1, 0): (73, "05647d5904351fda655ab8c24b104fde9d692171cb7243876977a70dd00daee5"),
    (2, 1): (155, "f6c2732e1e9b37718c08f10fe291b050be9f995098ee4f89d9268cca4878817e"),
}


def test_pipeline_honest_stall_case(tmp_path):
    for (j, c), (lines, digest) in STALL_DUMPS.items():
        out = tmp_path / f"a{j}{c}"
        rc = main(["pipeline", "--alpha", str(j), "--c", str(c), "--out", str(out)])
        assert rc == 1
        dump = out / "residual_f.txt"
        assert len(dump.read_text().splitlines()) == lines
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest


def test_a_derivation_loads_neither_the_verification_suite_nor_dataclasses():
    # `godeaux2 pipeline` imports cli and pipeline only; verify, and the
    # dataclasses module with the inspect module it pulls in, load on the
    # first verify command
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from godeaux2 import cli, pipeline\n"
        "unwanted = {'godeaux2.verify', 'dataclasses', 'inspect'}\n"
        "print(sorted(unwanted & (set(sys.modules) - before)))\n"
        "print(callable(vars(cli)['all_checks']), callable(vars(cli)['_golden_file_check']))\n"
        "print(cli.main(['verify', '--check', 'scaling']))\n"
        "import godeaux2\n"
        "print(godeaux2.all_checks is sys.modules['godeaux2.verify'].all_checks)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    lines = out.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[1] == "True True"
    assert lines[2].startswith("scaling ") and lines[2].split()[1] == "pass"
    assert lines[3:] == ["0", "True"]


def test_no_src_module_imports_dataclasses():
    importers = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                importers.append(path.name)
    assert importers == []
