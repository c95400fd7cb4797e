"""Compare two suite reports: A/A agreement or parent versus change.

Per (metric, workload) row: both medians with quartiles and sample
count, the change with its base, and a verdict.

* ``host`` metrics are noisy. ``regressed``: B's median is worse than
  A's by more than the metric's bound in ``BENCHMARK.json``.
  ``unresolved``: the run-to-run spread (quartile distance / median, of
  either side) is wider than the bound and the runs overlap, so the row
  can be called neither changed nor unchanged. ``ok`` otherwise --
  including a row with a wide spread where every run of B is better
  than every run of A.
* ``sim`` metrics repeat exactly for a fixed seed, so they are compared
  exactly: ``ok`` only if identical, ``regressed`` if worse by more than
  the bound, ``changed`` for any other difference. Per-layer counters
  and ``sim_digest`` are compared the same way, without a bound.

Exit status 1 on any ``regressed`` row or a larger share of failed
operations in B, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List

OK, REGRESSED, UNRESOLVED, CHANGED = "ok", "regressed", "unresolved", "changed"

#: per-layer sources that repeat exactly; the trace's ``calls`` do too,
#: except those the report lists under ``not_exact``
EXACT_SUFFIXES = (".calls",)


def summarize(samples: List[float]) -> Dict[str, float]:
    """Median, quartiles and count: the row shape the verdicts read."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return -change if better == "higher" else change


def spread(row: Dict[str, float]) -> float:
    median = row["median"]
    return abs(row["q3"] - row["q1"]) / abs(median) if median else 0.0


def host_verdict(a: Dict, b: Dict, better: str, bound: float) -> str:
    if max(spread(a), spread(b)) > bound:
        if better == "higher":
            b_wins = min(b["samples"]) > max(a["samples"])
            a_wins = min(a["samples"]) > max(b["samples"])
        else:
            b_wins = max(b["samples"]) < min(a["samples"])
            a_wins = max(a["samples"]) < min(b["samples"])
        if b_wins:
            return OK
        if not a_wins:
            return UNRESOLVED
    return REGRESSED if worse_by(a["median"], b["median"], better) > bound else OK


def sim_verdict(a: Dict, b: Dict, better: str, bound: float) -> str:
    values = set(a["samples"])
    if len(values) == 1 and values == set(b["samples"]):
        return OK
    return REGRESSED if worse_by(a["median"], b["median"], better) > bound else CHANGED


def compare(report_a: Dict, report_b: Dict, benchmark: Dict) -> Dict[str, object]:
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    counters = {m["name"] for m in benchmark["per_layer"] if m["unit"] in ("count", "bytes")}
    rows: List[Dict[str, object]] = []
    for workload in report_a["workloads"]:
        entry_a = report_a["workloads"][workload]
        entry_b = report_b["workloads"].get(workload)
        if entry_b is None:
            rows.append({"workload": workload, "metric": "*", "verdict": REGRESSED,
                         "note": "workload missing from B"})
            continue
        for metric, spec in bounds.items():
            a = entry_a["end_to_end"].get(metric)
            b = entry_b["end_to_end"].get(metric)
            if a is None or b is None:
                rows.append({"workload": workload, "metric": metric,
                             "verdict": REGRESSED if a is not None else OK,
                             "note": "not measured in " + ("B" if a is not None else "A")})
                continue
            judge = sim_verdict if a["kind"] == "sim" else host_verdict
            rows.append({
                "workload": workload, "metric": metric, "kind": a["kind"],
                "unit": a["unit"], "a": a, "b": b, "bound": spec["bound"],
                "worse_by": worse_by(a["median"], b["median"], spec["better"]),
                "verdict": judge(a, b, spec["better"], spec["bound"]),
            })
        digest_a, digest_b = entry_a.get("sim_digest"), entry_b.get("sim_digest")
        rows.append({"workload": workload, "metric": "sim_digest",
                     "verdict": OK if digest_a == digest_b and digest_a else CHANGED,
                     "note": f"{str(digest_a)[:16]} vs {str(digest_b)[:16]}"})
        layer_a, layer_b = entry_a.get("per_layer"), entry_b.get("per_layer")
        if layer_a and layer_b:
            exact = (
                {name for name in layer_a if name.endswith(EXACT_SUFFIXES)} | counters
            ) - set(entry_a.get("not_exact", ()))
            differing = sorted(
                name for name in exact if layer_a.get(name) != layer_b.get(name)
            )
            rows.append({"workload": workload, "metric": "per_layer exact counts",
                         "verdict": CHANGED if differing else OK,
                         "note": ", ".join(differing[:8]) + (" ..." if len(differing) > 8 else "")})
    share_a = _failed_share(report_a)
    share_b = _failed_share(report_b)
    verdicts = [row["verdict"] for row in rows]
    return {
        "rows": rows,
        "counts": {v: verdicts.count(v) for v in (OK, REGRESSED, UNRESOLVED, CHANGED)},
        "failed_share": {"a": share_a, "b": share_b},
        "exit_status": int(REGRESSED in verdicts or share_b > share_a),
    }


def _failed_share(report: Dict) -> float:
    ops = report["ops"]
    return ops["failed"] / ops["attempted"] if ops["attempted"] else 1.0


def _cell(row: Dict) -> str:
    return f"{row['median']:.5g} [{row['q1']:.5g}, {row['q3']:.5g}] n={row['n']}"


def render(result: Dict[str, object]) -> str:
    lines = []
    for row in result["rows"]:
        head = f"{row['workload']:18s} {row['metric']:24s} {row['verdict']:10s}"
        if "a" in row:
            lines.append(
                f"{head} A {_cell(row['a'])}  B {_cell(row['b'])}  "
                f"worse by {row['worse_by'] * 100:+.2f} % of A's {row['a']['median']:.5g} "
                f"{row['unit']} (bound {row['bound'] * 100:g} %, {row['kind']})"
            )
        else:
            lines.append(f"{head} {row.get('note', '')}")
    counts = result["counts"]
    shares = result["failed_share"]
    lines.append(
        f"{counts[OK]} ok, {counts[REGRESSED]} regressed, {counts[UNRESOLVED]} unresolved, "
        f"{counts[CHANGED]} changed; failed-operation share A {shares['a']:.4f} "
        f"B {shares['b']:.4f}"
    )
    return "\n".join(lines)


def main(argv: List[str], benchmark_path: str) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json")
        return 2
    with open(argv[0], encoding="utf-8") as a, open(argv[1], encoding="utf-8") as b, \
            open(benchmark_path, encoding="utf-8") as spec:
        result = compare(json.load(a), json.load(b), json.load(spec))
    print(render(result))
    return result["exit_status"]
