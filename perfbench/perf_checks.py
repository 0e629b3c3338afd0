"""Pure helpers shared by the benchmark: the tail rule and the checks.

Nothing here imports the program under test, so the self-tests in
``test_perf_checks.py`` exercise these rules without running a
workload.
"""

from __future__ import annotations

import math

#: Samples a tail percentile must leave beyond it to be reported.
TAIL_BEYOND = 10


def tail(values, beyond: int = TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n)``: with the ``n`` samples sorted
    ascending, the value at rank ``n - beyond - 1`` (0-based) has
    exactly ``beyond`` samples ranked above it, so it is the highest
    order statistic the sample count supports; ``percentile`` is the
    share of samples at or below that rank. Raises ``ValueError`` when
    fewer than ``beyond + 1`` samples exist: no percentile qualifies.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < beyond + 1:
        raise ValueError(f"a tail needs at least {beyond + 1} samples, got {n}")
    rank = n - beyond - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n


def due_time(t0: float, rate: float, index: int) -> float:
    """When edge ``index`` (0-based) of an open-loop schedule is due."""
    return t0 + index / rate


def match_snapshots(reads, t0: float, rate: float, batch_size: int, total: int):
    """Match live snapshots to the batches they cover.

    ``reads`` is a sequence of ``(read_time, edges_covered, final)``
    triples in arrival order. A non-final snapshot covering ``E`` edges
    closes batch ``E // batch_size``; its latency runs from the due
    time of that batch's last edge (index ``E - 1``) to ``read_time``.

    Returns ``(latencies, problems)``: ``latencies`` maps batch number
    (1-based) to seconds, and ``problems`` lists every expected batch
    whose snapshot is missing (one entry each), every snapshot that does not land on a
    batch boundary or repeats one, and a final snapshot that is absent
    or does not cover all ``total`` edges sent.
    """
    latencies: dict[int, float] = {}
    problems: list[str] = []
    final_edges = None
    for read_time, edges, final in reads:
        if final:
            final_edges = edges
            continue
        if edges <= 0 or edges % batch_size:
            problems.append(f"snapshot at {edges} edges is off a batch boundary")
            continue
        batch = edges // batch_size
        if batch in latencies:
            problems.append(f"batch {batch} reported twice")
            continue
        latencies[batch] = read_time - due_time(t0, rate, edges - 1)
    problems.extend(
        f"no snapshot for batch {b}"
        for b in range(1, total // batch_size + 1)
        if b not in latencies
    )
    if final_edges is None:
        problems.append("no final snapshot")
    elif final_edges != total:
        problems.append(f"final snapshot covers {final_edges} edges, sent {total}")
    return latencies, problems


def within(estimate, exact, rel: float) -> bool:
    """Whether ``estimate`` is within ``rel * |exact|`` of ``exact``.

    A non-finite or missing estimate never passes.
    """
    if estimate is None or not math.isfinite(float(estimate)):
        return False
    return abs(float(estimate) - float(exact)) <= rel * abs(float(exact))


def check_estimates(results, expected) -> list[str]:
    """Compare one pass's estimator results against ground truth.

    ``results`` maps estimator name to its reported result dict.
    ``expected`` maps estimator name to a list of
    ``(key, exact, rel)`` rules, where ``rel=None`` demands
    exact equality. Returns a description of every rule that failed.
    """
    failures = []
    for name, rules in expected.items():
        got = results.get(name)
        if got is None:
            failures.append(f"{name}: no result")
            continue
        for key, exact, rel in rules:
            value = got.get(key)
            if rel is None:
                ok = value == exact
            else:
                ok = within(value, exact, rel)
            if not ok:
                failures.append(f"{name}.{key} = {value!r}, expected {exact!r}")
    return failures
