"""Correctness check of a pass's outputs against the recorded reference.

Tolerances:

* analytic sweep values: one unit in the 12th significant digit of each
  printed value, plus twice the row's own ``est_error`` (reference and
  new), plus the metric quadrature tolerance (``rel 1e-9``, ``abs 1e-11``,
  ``satcuma.metrics.METRIC_SPEC`` when the reference was recorded).  A
  ``quadrature-limit`` flag may appear or disappear; every other warning
  must match, and a ``metric-failure`` row always fails.
* Monte-Carlo values: ``1e-12`` relative, plus one unit in the last printed
  digit for values read back from CSV.
* ``validate``: the overall verdict and every check's PASS/FAIL/info must
  match, and the exit code must be the one the verdict implies.
* ``report``: the text must match, numbers to within one unit of their
  last printed digit.

Every compared item is one attempted operation; a mismatch is one failed
operation.  ``self_test`` shows that perturbed outputs are caught.
"""

from __future__ import annotations

import copy
import json
import math
import os
import re

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

QUAD_RTOL = 1e-9
QUAD_ATOL = 1e-11
MC_RTOL = 1e-12
QUAD_LIMIT = "quadrature-limit"

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


class Tally:
    """Attempted and failed operations, with the first few mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str, program_seed: int):
    with open(reference_path(workload)) as fh:
        doc = json.load(fh)
    seeds = doc["seeds"]
    return seeds.get(str(program_seed), seeds.get("*"))


def sig12_quantum(text: str) -> float:
    """One unit in the 12th significant digit of a ``%.12g`` value."""
    v = abs(float(text))
    return 0.0 if v == 0.0 else 10.0 ** (math.floor(math.log10(v)) - 11)


def printed_quantum(text: str) -> float:
    """One unit in the last printed digit of a decimal number."""
    mantissa, _, exp = text.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exp or 0) - decimals)


def _float_close(new: str, ref: str, tol: float) -> bool:
    if new == "" or ref == "":
        return new == ref
    return abs(float(new) - float(ref)) <= tol


def analytic_tolerance(ref_row: dict, new_row: dict) -> float:
    r = float(ref_row["analytic"])
    est = float(ref_row["est_error"] or 0.0) + float(new_row["est_error"] or 0.0)
    return (sig12_quantum(ref_row["analytic"]) + sig12_quantum(new_row["analytic"])
            + 2.0 * est + QUAD_RTOL * abs(r) + QUAD_ATOL)


def _warning_set(text: str) -> set:
    return {w for w in text.split(";") if w} - {QUAD_LIMIT}


def row_mismatch(ref: dict, new: dict) -> str | None:
    """Why a sweep output row does not match its reference, or None."""
    for key in ("series", "param", "value", "metric"):
        if new[key] != ref[key]:
            return f"{key} {new[key]!r} != {ref[key]!r}"
    if new["warnings"].startswith("metric-failure"):
        return new["warnings"]
    if _warning_set(new["warnings"]) != _warning_set(ref["warnings"]):
        return f"warnings {new['warnings']!r} != {ref['warnings']!r}"
    if (new["analytic"] == "") != (ref["analytic"] == ""):
        return f"analytic {new['analytic']!r} != {ref['analytic']!r}"
    if ref["analytic"] != "":
        tol = analytic_tolerance(ref, new)
        if not _float_close(new["analytic"], ref["analytic"], tol):
            return f"analytic {new['analytic']} != {ref['analytic']} (tol {tol:.3g})"
    for key in ("mc_value", "mc_ci_low", "mc_ci_high"):
        if ref[key] == "" or new[key] == "":
            ok = ref[key] == new[key]
        else:
            tol = (MC_RTOL * abs(float(ref[key])) + sig12_quantum(ref[key])
                   + sig12_quantum(new[key]))
            ok = _float_close(new[key], ref[key], tol)
        if not ok:
            return f"{key} {new[key]!r} != {ref[key]!r}"
    return None


def check_rows(tally: Tally, label: str, ref_rows: list, new_rows: list) -> None:
    if len(new_rows) != len(ref_rows):
        tally.record(False, f"{label}: {len(new_rows)} rows, reference has {len(ref_rows)}")
    for i, (ref, new) in enumerate(zip(ref_rows, new_rows)):
        why = row_mismatch(ref, new)
        tally.record(why is None, f"{label} row {i + 1} ({ref['series']} {ref['param']}="
                                  f"{ref['value']} {ref['metric']}): {why}")


def check_summary(tally: Tally, label: str, ref: dict, new: dict) -> None:
    bad = []
    for key, rv in ref.items():
        nv = new.get(key)
        if isinstance(rv, int):
            ok = nv == rv
        else:
            ok = nv is not None and abs(nv - rv) <= MC_RTOL * abs(rv)
        if not ok:
            bad.append(f"{key} {nv!r} != {rv!r}")
    tally.record(not bad and set(new) == set(ref), f"{label}: {'; '.join(bad) or 'keys differ'}")


def line_mismatch(ref: str, new: str) -> bool:
    ref_nums, new_nums = _NUMBER.findall(ref), _NUMBER.findall(new)
    if _NUMBER.sub("#", ref) != _NUMBER.sub("#", new) or len(ref_nums) != len(new_nums):
        return True
    return any(abs(float(a) - float(b)) > printed_quantum(a) + printed_quantum(b)
               for a, b in zip(ref_nums, new_nums))


def check_outputs(workload: str, ref: dict, new: dict) -> Tally:
    tally = Tally()
    if workload == "figures-analytic":
        for preset, ref_rows in ref["rows"].items():
            tally.record(new["rc"].get(preset) == 0, f"sweep {preset} exit {new['rc'].get(preset)}")
            check_rows(tally, preset, ref_rows, new["rows"].get(preset, []))
    elif workload == "mc-kernel":
        for label, ref_sum in ref["summaries"].items():
            check_summary(tally, label, ref_sum, new["summaries"].get(label, {}))
    elif workload == "oracle-cli":
        verdict = ref["validate"]["overall"]
        want_rc = {"validate": 0 if verdict == "PASS" else 1, "report": 0, "fig3": 0}
        for key, rc in want_rc.items():
            tally.record(new["rc"].get(key) == rc, f"{key} exit {new['rc'].get(key)}, expected {rc}")
        tally.record(new["validate"]["overall"] == verdict,
                     f"validate overall {new['validate']['overall']} != {verdict}")
        for name, res in ref["validate"]["checks"].items():
            got = new["validate"]["checks"].get(name)
            tally.record(got == res, f"validate {name}: {got} != {res}")
        tally.record(set(new["validate"]["checks"]) == set(ref["validate"]["checks"]),
                     "validate check list differs")
        tally.record(len(new["report"]) == len(ref["report"]), "report line count differs")
        for i, (r, n) in enumerate(zip(ref["report"], new["report"])):
            tally.record(not line_mismatch(r, n), f"report line {i + 1}: {n!r} != {r!r}")
        check_rows(tally, "fig3", ref["fig3"], new["fig3"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return tally


def _bump(text: str, rel: float) -> str:
    return "%.12g" % (float(text) * (1.0 + rel))


def self_test(workload: str, ref: dict) -> list:
    """Feed the checker the reference and perturbed copies of it.

    Returns the list of cases the checker got wrong (empty when it works):
    the reference itself and changes within tolerance must pass, and each
    perturbation must be caught.
    """
    problems = []

    def expect(outputs, should_pass: bool, what: str):
        t = check_outputs(workload, ref, outputs)
        if (t.failed == 0) != should_pass:
            problems.append(f"{what}: expected {'pass' if should_pass else 'failure'}, "
                            f"got {t.failed} failed of {t.attempted}")

    expect(ref, True, "unchanged reference")
    if workload == "mc-kernel":
        for label in ref["summaries"]:
            out = copy.deepcopy(ref)
            out["summaries"][label]["sinr_sum"] *= 1.0 + 1e-9
            expect(out, False, f"{label} sinr_sum +1e-9")
            out = copy.deepcopy(ref)
            out["summaries"][label]["alpha_sum"] *= 1.0 + 1e-14
            expect(out, True, f"{label} alpha_sum +1e-14")
        return problems

    def row_lists(out):
        return [out["fig3"]] if workload == "oracle-cli" else list(out["rows"].values())

    # within tolerance: a few-ulp value change and dropped quadrature-limit flags
    out = copy.deepcopy(ref)
    for rows in row_lists(out):
        for row in rows:
            if row["analytic"]:
                row["analytic"] = repr(float(row["analytic"]) * (1.0 + 2e-15))
            row["warnings"] = ";".join(w for w in row["warnings"].split(";") if w != QUAD_LIMIT)
    expect(out, True, "analytic values +2e-15 and no quadrature-limit flags")

    # each analytic value moved by 1e-6 relative (or 3x its tolerance) is caught
    for row in (r for rows in row_lists(ref) for r in rows):
        if row["analytic"] == "" or float(row["analytic"]) == 0.0:
            continue
        bad = dict(row)
        rel = max(1e-6, 3.0 * analytic_tolerance(row, row) / abs(float(row["analytic"])))
        bad["analytic"] = _bump(row["analytic"], rel)
        if row_mismatch(row, bad) is None:
            problems.append(f"{row['series']} {row['value']} {row['metric']}: "
                            f"analytic +{rel:.2g} not caught")

    out = copy.deepcopy(ref)
    rows = row_lists(out)[0]
    rows[0]["warnings"] = "metric-failure: injected"
    expect(out, False, "metric-failure row")

    if workload == "oracle-cli":
        out = copy.deepcopy(ref)
        mc_row = next(r for r in out["fig3"] if r["mc_value"])
        mc_row["mc_value"] = _bump(mc_row["mc_value"], 1e-9)
        expect(out, False, "fig3 mc_value +1e-9")
        out = copy.deepcopy(ref)
        name = next(iter(out["validate"]["checks"]))
        out["validate"]["checks"][name] = "FAIL"
        expect(out, False, f"validate {name} flipped")
        out = copy.deepcopy(ref)
        i = next(i for i, line in enumerate(out["report"]) if line.startswith("mean SINR"))
        out["report"][i] = out["report"][i].replace(_NUMBER.findall(out["report"][i])[0], "0.1")
        expect(out, False, "report mean SINR changed")
        out = copy.deepcopy(ref)
        out["rc"]["report"] = 1
        expect(out, False, "report exit code 1")
    return problems
