"""scripts/case_survey.py, run in-process over all six cases."""

import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "case_survey.py"

# (j, c) -> the start of its line: |f| and parameter count, then the verdict
SOLVED = {
    (1, 1): "|f|=876 params=394  solved",
    (2, 0): "|f|=741 params=394  solved",
    (3, 1): "|f|=692 params=393  solved",
    (3, 0): "|f|=596 params=144  solved",
}
# (j, c) -> the start of its line, up to the residual count, and its idle round
STALLED = {
    (1, 0): ("|f|=850 params=394  STALLED (73 residuals", 11),
    (2, 1): ("|f|=804 params=394  STALLED (155 residuals", 13),
}


def test_survey_prints_one_line_per_case(capsys):
    runpy.run_path(str(SCRIPT))["survey"]()
    lines = capsys.readouterr().out.splitlines()
    heads = {}  # "alpha_j c=c" -> (index of its line, the rest of the line)
    for k, line in enumerate(lines):
        if line.startswith("alpha_"):
            case, rest = line.split(": ", 1)
            assert case not in heads
            heads[case] = k, rest
    assert sorted(heads) == sorted(f"alpha_{j} c={c}" for j in (1, 2, 3) for c in (0, 1))
    for (j, c), start in SOLVED.items():
        assert heads[f"alpha_{j} c={c}"][1].startswith(start)
    for (j, c), (start, idle_round) in STALLED.items():
        k, rest = heads[f"alpha_{j} c={c}"]
        assert rest.startswith(start)
        assert lines[k + 1].startswith(f"    fixpoint at idle round {idle_round}: [")
