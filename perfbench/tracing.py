"""Layer tracing from outside the package.

`Tracer.install()` replaces public functions at the name each caller looks
them up by (a module global, or a class attribute for methods) with timing
wrappers; `uninstall()` puts the originals back.  Nothing in `godeaux2` is
edited.

Two kinds of wrapper:

* span  -- a layer boundary.  Each call appends a span record
  (id, parent id, name, start, end, attributes) to an in-memory list.
* hot   -- a function called thousands of times (ring arithmetic,
  `primitive_form`).  Each call only adds to a count and a time total; every
  span records how much of those totals accrued while it was open.

`layer_metrics()` folds one traced pass into the flat per-layer metrics
listed in BENCHMARK.json; `dump()` writes the raw spans as JSON.
"""

from __future__ import annotations

import json
from fractions import Fraction
from time import perf_counter

HOT = ("elim.primitive_form", "ring.leading_mono", "ring.substitute", "ring.mul")

# verify registry names, plus golden_file which cli.py adds to the registry
VERIFY_CHECKS = (
    "alpha2_basepoint",
    "alpha3_square",
    "c_normalization",
    "central_minors",
    "closed_form_rc",
    "excluded_diagonal_rc",
    "extension_cases_1_2",
    "extension_shuffle",
    "golden_file",
    "golden_match",
    "imaginary_unit_congruence",
    "quartic_root_congruence",
    "r_removal",
    "restriction_cofactors_1",
    "restriction_cofactors_2",
    "restriction_cofactors_3",
    "scaling",
    "special_bf",
    "special_by",
    "y2_quartic_coefficient",
)

# (name, unit); every metric is reported on every workload, as 0 where the
# workload never enters that layer
LAYER_METRICS = (
    [
        ("elim.driver.s", "s"),
        ("elim.rounds", "count"),
        ("elim.lin_elim.calls", "count"),
        ("elim.lin_elim.s", "s"),
        ("elim.stage_A.s", "s"),
        ("elim.stage_B.s", "s"),
        ("elim.stage_fallback.s", "s"),
        ("elim.pivots", "count"),
        ("elim.primitive_form.calls", "count"),
        ("elim.primitive_form.s", "s"),
        ("elim.primitive_form.noop_frac", "ratio"),
        ("elim.f_terms_in", "count"),
        ("elim.coeff_bits_max", "bits"),
        ("elim.resolve_dependencies.s", "s"),
        ("elim.back_substitute.s", "s"),
        ("ring.leading_mono.calls", "count"),
        ("ring.leading_mono.s", "s"),
        ("ring.substitute.calls", "count"),
        ("ring.substitute.s", "s"),
        ("ring.mul.calls", "count"),
        ("ring.mul.s", "s"),
        ("rc.build_l_ansatz.s", "s"),
        ("rc.rc_residuals.s", "s"),
        ("rc.extract_system.s", "s"),
        ("rc.f_polys", "count"),
        ("rc.f_terms", "count"),
        ("rc.params", "count"),
        ("alpha.build_ansatz.s", "s"),
        ("alpha.determinant.s", "s"),
        ("alpha.det_any.s", "s"),
        ("surface.generate_equations.s", "s"),
        ("surface.collect_Gm.s", "s"),
        ("surface.remove_r.s", "s"),
        ("surface.membership_check.calls", "count"),
        ("surface.membership_check.s", "s"),
        ("surface.membership_check.inconclusive", "ratio"),
    ]
    + [(f"verify.{name}.s", "s") for name in VERIFY_CHECKS]
    + [
        ("pipeline.run_pipeline.s", "s"),
        ("pipeline.write_artifacts.s", "s"),
        ("pipeline.artifact_bytes", "bytes"),
        ("pipeline.case_s.alpha_1_1", "s"),
        ("pipeline.case_s.alpha_3_1", "s"),
        ("pipeline.case_s.alpha_3_0", "s"),
        ("pipeline.case_s.alpha_2_0", "s"),
        ("trace.overhead_s", "s"),
    ]
)

# count-type metrics: identical on every traced run of the same code
COUNT_METRICS = tuple(
    name
    for name, _ in LAYER_METRICS
    if name.endswith(".calls")
    or name in ("elim.pivots", "elim.rounds", "elim.f_terms_in", "elim.coeff_bits_max")
    or (name.startswith("rc.") and not name.endswith(".s"))
)

# artifacts hashed by the correctness gate, and counted in artifact_bytes
ARTIFACTS = ("alpha.json", "equations.json", "deps.log")


def _coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return abs(int(c)).bit_length()


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts = {name: 0 for name in HOT}
        self.times = {name: 0.0 for name in HOT}
        self.primitive_noops = 0
        self._driver: list = []  # per open driver: [r_names, last stage]
        self._saved: list = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, observe=None):
        spans, stack = self.spans, self.stack
        counts, times = self.counts, self.times

        def wrapper(*args, **kwargs):
            rec = {"id": len(spans), "parent": stack[-1] if stack else None, "name": name}
            spans.append(rec)
            stack.append(rec["id"])
            counts0, times0 = dict(counts), dict(times)
            if observe is not None:
                observe(self, rec, "enter", args, None)
            out, when = None, "error"
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                when = "exit"
            finally:
                t1 = perf_counter()
                stack.pop()
                rec["start"], rec["end"] = t0, t1
                rec["hot"] = {
                    k: [counts[k] - counts0[k], times[k] - times0[k]]
                    for k in counts
                    if counts[k] != counts0[k]
                }
                if observe is not None:
                    observe(self, rec, when, args, out)
            return out

        return wrapper

    def _hot(self, name, fn):
        counts, times = self.counts, self.times

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            times[name] += perf_counter() - t0
            counts[name] += 1
            return out

        return wrapper

    def _primitive_form(self, fn):
        counts, times = self.counts, self.times

        def wrapper(p, *args, **kwargs):
            t0 = perf_counter()
            out = fn(p, *args, **kwargs)
            times["elim.primitive_form"] += perf_counter() - t0
            counts["elim.primitive_form"] += 1
            if out is p or out.terms == p.terms:
                self.primitive_noops += 1
            return out

        return wrapper

    # -- observers: counts taken at the boundary -----------------------

    @staticmethod
    def _observe_driver(tracer, rec, when, args, out):
        """Remember the r-list this driver passes, so its lin_elim calls can
        be told apart: stage A sweeps the r's, B and D the g/b's (D right
        after a C round)."""
        if when == "enter":
            tracer._driver.append([args[1], None])
        else:
            tracer._driver.pop()

    @staticmethod
    def _observe_stage(kind):
        def observe(tracer, rec, when, args, out):
            if when == "enter":
                if kind == "lin_elim":
                    f = args[0]
                    rec["f_terms_in"] = sum(len(p.terms) for p in f)
                    rec["coeff_bits_max"] = max(
                        (_coeff_bits(c) for p in f for c in p.terms.values()), default=0
                    )
                return
            if when != "exit":
                return
            if kind == "lin_elim":
                rec["pivots"] = len(out[2])
            ctx = tracer._driver[-1] if tracer._driver else None
            parent = tracer.spans[rec["parent"]] if rec["parent"] is not None else None
            if ctx is None or parent is None or parent["name"] != "elim.driver":
                return
            if kind == "lin_elim":
                var = args[2]
                if var is ctx[0] or list(var) == list(ctx[0]):
                    stage = "A"
                else:
                    stage = "D" if ctx[1] == "C" else "B"
            else:
                stage = "C" if kind == "monomial_elim" else "E"
            rec["stage"] = ctx[1] = stage

        return observe

    @staticmethod
    def _observe_system(tracer, rec, when, args, out):
        if when == "exit":
            rec["f_polys"] = len(out.f)
            rec["f_terms"] = sum(len(p.terms) for p in out.f)
            rec["params"] = out.param_count

    @staticmethod
    def _observe_write(tracer, rec, when, args, out):
        if when == "exit":
            rec["artifact_bytes"] = sum(p.stat().st_size for p in out if p.name in ARTIFACTS)

    @staticmethod
    def _observe_membership(tracer, rec, when, args, out):
        if when == "exit":
            rec["inconclusive"] = int(out == "inconclusive")

    def _wrap_registry(self, fn):
        """cli looks up all_checks(seed) and adds golden_file to its result;
        wrap every check of the registry it gets back."""

        def all_checks(*args, **kwargs):
            registry = fn(*args, **kwargs)
            return {name: self._span(f"verify.{name}", check) for name, check in registry.items()}

        return all_checks

    def _wrap_golden_check(self, fn):
        def make(*args, **kwargs):
            return self._span("verify.golden_file", fn(*args, **kwargs))

        return make

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        from godeaux2 import alpha, cli, elim, pipeline, rc, ring, surface, verify

        span, hot = self._span, self._hot
        stage = self._observe_stage
        plan = [
            # (owner, attribute, wrapper factory)
            (pipeline, "run_pipeline", lambda f: span("pipeline.run_pipeline", f)),
            (cli, "run_pipeline", lambda f: span("pipeline.run_pipeline", f)),
            (verify, "run_pipeline", lambda f: span("pipeline.run_pipeline", f)),
            (cli, "write_artifacts", lambda f: span("pipeline.write_artifacts", f, self._observe_write)),
            (pipeline, "build_ansatz", lambda f: span("alpha.build_ansatz", f)),
            (alpha, "build_ansatz", lambda f: span("alpha.build_ansatz", f)),
            (alpha.SymPolyMatrix, "determinant", lambda f: span("alpha.determinant", f)),
            (alpha, "det_any", lambda f: span("alpha.det_any", f)),
            (verify, "det_any", lambda f: span("alpha.det_any", f)),
            (pipeline, "build_l_ansatz", lambda f: span("rc.build_l_ansatz", f)),
            (verify, "build_l_ansatz", lambda f: span("rc.build_l_ansatz", f)),
            (pipeline, "rc_residuals", lambda f: span("rc.rc_residuals", f)),
            (verify, "rc_residuals", lambda f: span("rc.rc_residuals", f)),
            (pipeline, "extract_system", lambda f: span("rc.extract_system", f, self._observe_system)),
            (verify, "extract_system", lambda f: span("rc.extract_system", f, self._observe_system)),
            (pipeline, "driver", lambda f: span("elim.driver", f, self._observe_driver)),
            (elim, "lin_elim", lambda f: span("elim.lin_elim", f, stage("lin_elim"))),
            (verify, "lin_elim", lambda f: span("elim.lin_elim", f, stage("lin_elim"))),
            (elim, "monomial_elim", lambda f: span("elim.monomial_elim", f, stage("monomial_elim"))),
            (elim, "zero_free_vars", lambda f: span("elim.zero_free_vars", f, stage("zero_free_vars"))),
            (pipeline, "resolve_dependencies", lambda f: span("elim.resolve_dependencies", f)),
            (verify, "resolve_dependencies", lambda f: span("elim.resolve_dependencies", f)),
            (pipeline, "back_substitute", lambda f: span("elim.back_substitute", f)),
            (pipeline, "generate_equations", lambda f: span("surface.generate_equations", f)),
            (pipeline, "collect_Gm", lambda f: span("surface.collect_Gm", f)),
            (pipeline, "remove_r", lambda f: span("surface.remove_r", f)),
            (verify, "membership_check", lambda f: span("surface.membership_check", f, self._observe_membership)),
            (cli, "all_checks", self._wrap_registry),
            (cli, "_golden_file_check", self._wrap_golden_check),
            (elim, "primitive_form", self._primitive_form),
            (ring.Polynomial, "leading_mono", lambda f: hot("ring.leading_mono", f)),
            (ring.Polynomial, "substitute", lambda f: hot("ring.substitute", f)),
            (ring.Polynomial, "__mul__", lambda f: hot("ring.mul", f)),
            (ring.Polynomial, "__rmul__", lambda f: hot("ring.mul", f)),
        ]
        for owner, attr, factory in plan:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def layer_metrics(self, extra: dict) -> dict:
        """Per-layer metrics of everything traced so far; `extra` supplies
        the ones the benchmark times itself (per-case times, overhead).
        A call that raised contributes its time but no counts."""
        out = {name: 0 for name, _ in LAYER_METRICS}

        def add(metric, value):
            out[metric] += value

        membership_calls = inconclusive = 0
        for rec in self.spans:
            name, dur = rec["name"], rec["end"] - rec["start"]
            if name in ("elim.monomial_elim", "elim.zero_free_vars"):
                if "stage" in rec:
                    add("elim.rounds", 1)
                    add("elim.stage_fallback.s", dur)
                continue
            if name == "surface.membership_check":
                membership_calls += 1
                inconclusive += rec.get("inconclusive", 0)
            if f"{name}.s" in out:
                add(f"{name}.s", dur)
            if name == "elim.lin_elim":
                add("elim.lin_elim.calls", 1)
                add("elim.pivots", rec.get("pivots", 0))
                add("elim.f_terms_in", rec["f_terms_in"])
                out["elim.coeff_bits_max"] = max(out["elim.coeff_bits_max"], rec["coeff_bits_max"])
                stage = rec.get("stage")
                if stage is not None:
                    add("elim.rounds", 1)
                    add("elim.stage_fallback.s" if stage == "D" else f"elim.stage_{stage}.s", dur)
            elif name == "rc.extract_system":
                add("rc.f_polys", rec.get("f_polys", 0))
                add("rc.f_terms", rec.get("f_terms", 0))
                add("rc.params", rec.get("params", 0))
            elif name == "pipeline.write_artifacts":
                add("pipeline.artifact_bytes", rec.get("artifact_bytes", 0))
        out["surface.membership_check.calls"] = membership_calls
        if membership_calls:
            out["surface.membership_check.inconclusive"] = inconclusive / membership_calls
        for name in HOT:
            out[f"{name}.calls"] = self.counts[name]
            out[f"{name}.s"] = self.times[name]
        pf_calls = self.counts["elim.primitive_form"]
        if pf_calls:
            out["elim.primitive_form.noop_frac"] = self.primitive_noops / pf_calls
        out.update(extra)
        return out

    def dump(self, path, label: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "label": label,
                    "spans": self.spans,
                    "hot_totals": {k: [self.counts[k], self.times[k]] for k in HOT},
                    "primitive_form_noops": self.primitive_noops,
                },
                indent=0,
            )
            + "\n"
        )
