"""Reference check behind ``fail_frac``: compare a preset CSV with the CSV
this benchmark froze for the same config.

Rows are judged on their values, not bit for bit, so a kernel that reorders
floating-point sums or the random stream still passes when its numbers hold:

* ``exact`` and ``analytic`` rows: mean and std within RTOL of the reference
  (plus ATOL, for values that are rounding noise around zero);
* ``A{n}_est`` and ``T{n}_est``: within K_SE shot standard errors (the row's
  ``*_shot_se``) of the exact counterpart in the same CSV;
* ``fstab_{upper,lower}_n{n}_est``: inside the image, under the monotone bound
  map, of the interval every instance's moment estimate must fall in;
* ``*_shot_se``: within SE_RTOL of the reference standard error.

A CSV whose (sweep, quantity, kind, instances) rows differ from the
reference's, in content or order, fails every row.
"""
from __future__ import annotations

import csv
import io
import math
import re

RTOL = 1e-6
ATOL = 1e-10
K_SE = 5.0
SE_RTOL = 0.25

_EST = re.compile(r"^([AT])(\d+)_est$")
_BOUND_EST = re.compile(r"^fstab_(upper|lower)_n(\d+)_est$")


def parse_rows(text: str) -> list[dict]:
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        rows.append(
            {
                "key": (rec["sweep"], rec["quantity"], rec["kind"], int(rec["instances"])),
                "quantity": rec["quantity"],
                "kind": rec["kind"],
                "mean": float(rec["mean"]),
                "std": float(rec["std"]),
                "instances": int(rec["instances"]),
            }
        )
    return rows


def _close(value: float, ref: float, rtol: float = RTOL) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= ATOL + rtol * abs(ref)


def _max_deviation(row: dict) -> float:
    """Largest possible distance of one instance from the row mean, given the
    sample std (ddof=1) over m instances."""
    m = row["instances"]
    return row["std"] * (m - 1) / math.sqrt(m) if m > 1 else 0.0


def _bound(kind: str, n: int, moment: float) -> float:
    moment = min(max(moment, 1e-300), 1.0)  # the estimator path clamps
    if kind == "upper":
        return moment ** (1.0 / (2 * n))
    return (moment - 2.0 ** (1 - n)) / (1.0 - 2.0 ** (1 - n))


def _row_ok(row: dict, ref: dict, by_name: dict) -> bool:
    name = row["quantity"]
    if row["kind"] in ("exact", "analytic"):
        return _close(row["mean"], ref["mean"]) and _close(row["std"], ref["std"])
    if name.endswith("_shot_se"):
        return _close(row["mean"], ref["mean"], SE_RTOL)
    m = _EST.match(name)
    if m:
        exact = by_name[f"{m[1]}{m[2]}_exact"]
        se = by_name[f"{name}_shot_se"]["mean"]
        return abs(row["mean"] - exact["mean"]) <= K_SE * se + ATOL
    m = _BOUND_EST.match(name)
    if m:
        n = int(m[2])
        exact = by_name[f"A{n}_exact"]
        se_row = by_name[f"A{n}_est_shot_se"]
        reach = _max_deviation(exact) + K_SE * (se_row["mean"] + _max_deviation(se_row))
        lo = _bound(m[1], n, exact["mean"] - reach)
        hi = _bound(m[1], n, exact["mean"] + reach)
        return lo - ATOL <= row["mean"] <= hi + ATOL
    raise ValueError(f"no rule to check estimated quantity {name!r}")


def check_csv(text: str, reference_text: str) -> tuple[int, int, list[str]]:
    """Return (rows checked, rows failed, descriptions of the failures).

    Rows checked is the reference's row count, so a CSV that lost rows
    cannot look better than one that kept them.
    """
    ref_rows = parse_rows(reference_text)
    total = len(ref_rows)
    try:
        rows = parse_rows(text)
    except (KeyError, ValueError, TypeError) as exc:
        return total, total, [f"unreadable CSV: {exc}"]
    if [r["key"] for r in rows] != [r["key"] for r in ref_rows]:
        return total, total, ["row set or quantity names differ from the reference"]
    failures = []
    sweeps: dict[str, dict[str, dict]] = {}
    for r in rows:
        sweeps.setdefault(r["key"][0], {})[r["quantity"]] = r
    for row, ref in zip(rows, ref_rows):
        try:
            ok = _row_ok(row, ref, sweeps[row["key"][0]])
        except KeyError as exc:
            ok, exc_text = False, f" (missing counterpart {exc})"
        else:
            exc_text = ""
        if not ok:
            failures.append(
                f"sweep={row['key'][0]} {row['quantity']}: mean {row['mean']!r} std {row['std']!r}"
                f" vs reference {ref['mean']!r} / {ref['std']!r}{exc_text}"
            )
    return total, len(failures), failures
