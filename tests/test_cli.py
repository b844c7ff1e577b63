"""CLI behavior: artifacts, determinism, exit codes, negative controls."""

import json
import subprocess
import sys

import pytest

from godeaux2.cli import main, packaged_golden
from godeaux2.pipeline import write_artifacts


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
    write_artifacts(run11, a, ("alpha", "equations", "deps"))
    write_artifacts(run11, b, ("alpha", "equations", "deps"))
    for name in ("alpha.json", "equations.json", "deps.log"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_deps_log_format(tmp_path, run11):
    out = tmp_path / "deps"
    write_artifacts(run11, out, ("deps",))
    lines = (out / "deps.log").read_text().splitlines()
    assert len(lines) == len(run11.elim.deps)
    assert all(" := " in line for line in lines)


def test_pipeline_zero_rounds_fails_with_dump(tmp_path):
    out = tmp_path / "stall"
    rc = main(
        ["pipeline", "--alpha", "1", "--c", "1", "--out", str(out), "--max-rounds", "0"]
    )
    assert rc == 1
    dump = out / "residual_f.txt"
    assert dump.exists()
    assert len(dump.read_text().splitlines()) == 876


def test_verify_selected_checks():
    assert main(["verify", "--check", "excluded_diagonal_rc", "--check", "y2_quartic_coefficient"]) == 0


def test_r_removal_verdict_is_seed_independent(capsys, run11):
    lines = []
    for seed in ("0", "7"):
        assert main(["verify", "--check", "r_removal", "--seed", seed]) == 0
        name, status, _timing, note = capsys.readouterr().out.split(maxsplit=3)
        lines.append((name, status, note.strip()))
    assert lines[0] == lines[1]
    assert lines[0][:2] == ("r_removal", "pass")
    assert lines[0][2] == "all 94 r-coefficients certified by exact cofactors over Q[moduli]"


def test_verify_unknown_check_is_usage_error():
    assert main(["verify", "--check", "nonsense"]) == 2


def test_verify_corrupted_golden_fails(tmp_path):
    golden = tmp_path / "alpha_1_1.json"
    data = json.loads(packaged_golden().read_text())
    data["matrix"][0][0]["text"] = "0"
    golden.write_text(json.dumps(data, indent=1) + "\n")
    rc = main(["verify", "--check", "golden_file", "--golden", str(golden)])
    assert rc == 1
    # the pristine file passes
    assert main(["verify", "--check", "golden_file"]) == 0


def test_special_by_and_bf(run11):
    assert main(["special", "--surface", "by"]) == 0
    assert main(["special", "--surface", "bf"]) == 0


def test_special_unknown_surface_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "godeaux2.cli", "special", "--surface", "nope"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_missing_subcommand_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "godeaux2.cli"], capture_output=True, text=True
    )
    assert proc.returncode == 2


def test_pipeline_deep_ladder_case(tmp_path, run20):
    out = tmp_path / "a20"
    rc = main(
        ["pipeline", "--alpha", "2", "--c", "0", "--out", str(out), "--max-rounds", "16"]
    )
    assert rc == 0
    eqs = json.loads((out / "equations.json").read_text())
    assert eqs["variables"][3] == "y4"  # the j=2 chart keeps y4, not y3
    assert len(eqs["equations"]) == 21


def test_pipeline_honest_stall_case(tmp_path):
    out = tmp_path / "a10"
    rc = main(["pipeline", "--alpha", "1", "--c", "0", "--out", str(out)])
    assert rc == 1
    assert (out / "residual_f.txt").exists()
