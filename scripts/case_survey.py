#!/usr/bin/env python3
"""Survey all six matrix cases (j, c): system sizes, whether the staged
elimination terminates, and the surviving moduli.

The (1,0) and (2,1) systems are expected to stall: their residual relations
contain products like b11*b12 that a constant-pivot eliminator cannot split.
A stall is the ladder's first idle round; the script reports that round, the
stage string and the smallest residual polynomials.
"""

import argparse
import time

from godeaux2.elim import EliminationError
from godeaux2.pipeline import run_pipeline


def survey() -> None:
    for j in (1, 2, 3):
        for c in (1, 0):
            t0 = time.monotonic()
            try:
                run = run_pipeline(j, c)
            except EliminationError as err:
                log = err.state.round_log
                left = sorted(err.state.f, key=lambda p: len(p.terms))
                print(f"alpha_{j} c={c}: |f|={len(err.system.f)} params={err.system.param_count}"
                      f"  STALLED ({len(err.state.f)} residuals, "
                      f"{time.monotonic() - t0:.1f}s)")
                idle_round = sum(r.stage == "A" for r in log)
                print(f"    fixpoint at idle round {idle_round}: [{''.join(r.stage for r in log)}]")
                for p in left[:3]:
                    print(f"    residual: {str(p)[:100]}")
                continue
            surv = run.gbd_survivors
            stages = "".join(r.stage for r in run.elim.round_log)
            print(f"alpha_{j} c={c}: |f|={len(run.system.f)} params={run.system.param_count}"
                  f"  solved [{stages}] in {time.monotonic() - t0:.1f}s; "
                  f"survivors ({len(surv)}): {', '.join(surv)}")


if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__).parse_args()
    survey()
