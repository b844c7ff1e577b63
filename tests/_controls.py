"""Negative controls shared by test_verify.py and test_acceptance.py.  Each
one monkeypatches a single module-level name of `godeaux2.verify` so that a
passing check is fed a wrong input and must fail; the checks themselves take
no test-only options."""

from godeaux2 import verify
from godeaux2.ring import RewriteRule


def perturb_excluded_multipliers(monkeypatch):
    """Add y2 to the (2,2) multiplier of the excluded diagonal type."""
    real = verify.excluded_diagonal_multipliers

    def perturbed(table):
        L = real(table)
        L[1][1] = L[1][1] + table.var("y2")
        return L

    monkeypatch.setattr(verify, "excluded_diagonal_multipliers", perturbed)


def perturb_at_x0(monkeypatch):
    """Make verify._at_x0 add y1 to the (3,3) entry of every matrix it lays
    out (its central[1][1])."""
    real = verify._at_x0

    def perturbed(Q, central):
        central = [list(row) for row in central]
        central[1][1] = central[1][1] + Q.table.var("y1")
        return real(Q, central)

    monkeypatch.setattr(verify, "_at_x0", perturbed)


def weaken_rewrite_rules(monkeypatch):
    """Raise the power of every rewrite rule verify declares by one, so
    r^4 = -d^2 (and i^2 = -1) no longer reduce."""
    monkeypatch.setattr(
        verify, "RewriteRule", lambda variable, power, replacement: RewriteRule(variable, power + 1, replacement)
    )
