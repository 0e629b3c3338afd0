"""Seeded workload inputs and their ground truth, cached by recipe and seed.

Every input comes from the repository's own generators
(:func:`repro.generators.holme_kim`, :class:`repro.rng.RandomSource`);
ground truth comes from :mod:`repro.exact`, computed once when the
input is generated and stored beside it. Generation happens in the
benchmark process before any timed or set-up measurement starts.

Cache layout: ``perfbench/.cache/<recipe>-<params hash>-s<seed>/`` holds
``data.txt`` (the input file the program reads), ``truth.json`` (sizes
and exact counts) and, once a run has finished, ``results-<workload>.json``
(the estimates that run produced, for the same-seed repeat check).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

CACHE = Path(__file__).resolve().parent / ".cache"


def _key(recipe: str, params: dict, seed: int) -> str:
    blob = json.dumps([recipe, params], sort_keys=True).encode()
    return f"{recipe}-{hashlib.sha256(blob).hexdigest()[:10]}-s{seed}"


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _lines(rows: np.ndarray) -> str:
    """``u v`` (or ``u v s``) text, one row per line."""
    if rows.shape[1] == 3:
        return "".join(f"{u} {v} {s:+d}\n" for u, v, s in rows.tolist())
    return "".join(f"{u} {v}\n" for u, v in rows.tolist())


def _holme_kim_edges(num_edges: int, seed: int) -> np.ndarray:
    """The first ``num_edges`` edges of a seeded Holme-Kim graph, canonical."""
    from repro.generators import holme_kim

    edges = holme_kim(num_edges // 5 + 10, 5, 0.5, seed=seed)
    if len(edges) < num_edges:
        raise ValueError(f"holme_kim gave {len(edges)} edges, need {num_edges}")
    return np.asarray(edges[:num_edges], dtype=np.int64)


def _static_truth(edges: np.ndarray) -> dict:
    from repro.exact import count_triangles, count_wedges

    pairs = list(map(tuple, edges.tolist()))
    triangles = count_triangles(pairs)
    wedges = count_wedges(pairs)
    return {
        "distinct_edges": len(pairs),
        "triangles": triangles,
        "wedges": wedges,
        "transitivity": 3.0 * triangles / wedges,
    }


def snap_file(num_edges: int, seed: int):
    """A SNAP-style file: every edge in both directions, plus a header.

    Each canonical edge ``u v`` is followed by its reverse ``v u``, so
    half the lines are repeats that ingest dedup must drop; the
    distinct edges keep their generation order.
    """
    edges = _holme_kim_edges(num_edges, seed)
    both = np.empty((2 * len(edges), 2), dtype=np.int64)
    both[0::2] = edges
    both[1::2] = edges[:, ::-1]
    text = f"# holme_kim n_edges={num_edges} seed={seed}, both directions\n"
    truth = _static_truth(edges)
    truth["lines"] = len(both)
    return text + _lines(both), truth


def simple_file(num_edges: int, prefix: int, seed: int):
    """A simple-graph stream of ``num_edges`` distinct canonical edges.

    Ground truth covers the whole stream and, as ``prefix_triangles``,
    its first ``prefix`` edges (what a shorter run of the same stream
    must estimate).
    """
    from repro.exact import count_triangles

    edges = _holme_kim_edges(num_edges, seed)
    truth = _static_truth(edges)
    truth["lines"] = len(edges)
    truth["prefix"] = prefix
    truth["prefix_triangles"] = count_triangles(list(map(tuple, edges[:prefix].tolist())))
    return _lines(edges), truth


def window_file(num_edges: int, clique_size: int, window: int, seed: int):
    """A triangle-dense simple stream plus the exact sliding-window count.

    A union of ``clique_size``-cliques with a random overlay filling it
    up to ``num_edges`` (:func:`repro.generators.random_graphs.clique_union_regular`,
    shuffled by the generator): every edge closes many triangles and no
    vertex is a hub, so a 256-sampler pool estimates it within about 8%
    (one standard deviation) where a power-law stream of the same length
    spreads about 40%.
    """
    from repro.exact.sliding import sliding_window_triangle_counts
    from repro.generators.random_graphs import clique_union_regular

    per_clique = clique_size * (clique_size - 1) // 2
    cliques = num_edges // per_clique
    pairs = clique_union_regular(
        cliques * clique_size, clique_size, num_edges - cliques * per_clique, seed=seed
    )
    if len(pairs) != num_edges:
        raise ValueError(f"clique_union_regular gave {len(pairs)} edges, need {num_edges}")
    truth = {
        "lines": num_edges,
        "distinct_edges": num_edges,
        "window_triangles": sliding_window_triangle_counts(pairs, window)[-1],
    }
    return _lines(np.asarray(pairs, dtype=np.int64)), truth


def turnstile_events(n_events: int, n_vertices: int, delete_ratio: float, seed: int):
    """A well-formed insert/delete schedule and the exact final graph.

    Deletions target a uniform *present* edge, so every prefix is a
    valid simple graph; inserts draw a uniform absent vertex pair.
    Ground truth is an exact recount of the graph left at the end.
    """
    from repro.exact import count_triangles
    from repro.rng import RandomSource

    rng = RandomSource(seed)
    present: list[tuple[int, int]] = []
    slot: dict[tuple[int, int], int] = {}
    events = np.empty((n_events, 3), dtype=np.int64)
    count = 0
    while count < n_events:
        if present and rng.random() < delete_ratio:
            idx = rng.rand_int(0, len(present) - 1)
            edge = present[idx]
            last = present[-1]
            present[idx] = last
            slot[last] = idx
            present.pop()
            del slot[edge]
            events[count] = (edge[0], edge[1], -1)
        else:
            u = rng.rand_int(0, n_vertices - 1)
            v = rng.rand_int(0, n_vertices - 1)
            if u == v:
                continue
            edge = (min(u, v), max(u, v))
            if edge in slot:
                continue
            slot[edge] = len(present)
            present.append(edge)
            events[count] = (edge[0], edge[1], 1)
        count += 1
    truth = {
        "lines": n_events,
        "deletes": int((events[:, 2] < 0).sum()),
        "net_edges": len(present),
        "triangles": count_triangles(present),
    }
    return _lines(events), truth


RECIPES = {
    "snap": snap_file,
    "simple": simple_file,
    "window": window_file,
    "turnstile": turnstile_events,
}


def generate(recipe: str, params: dict, seed: int) -> Path:
    """Write the input and its ground truth into the cache; return the folder."""
    folder = CACHE / _key(recipe, params, seed)
    folder.mkdir(parents=True, exist_ok=True)
    text, truth = RECIPES[recipe](seed=seed, **params)
    truth = {"recipe": recipe, "seed": seed, **params, **truth}
    _write_atomic(folder / "data.txt", text)
    _write_atomic(folder / "truth.json", json.dumps(truth, sort_keys=True))
    return folder


def prepare(recipe: str, params: dict, seed: int, env: dict) -> tuple[Path, dict, Path]:
    """Return ``(data path, ground truth, cache dir)``, generating on a miss.

    Generation runs in a child process so that the benchmark process
    stays small: a process it launches inherits its peak memory in
    ``ru_maxrss`` (Linux records the pre-``exec`` image's high-water
    mark), which would otherwise leak into ``peak_rss_mb``.
    """
    folder = CACHE / _key(recipe, params, seed)
    data = folder / "data.txt"
    truth_path = folder / "truth.json"
    if not (data.exists() and truth_path.exists()):
        subprocess.run(
            [sys.executable, __file__, recipe, json.dumps(params), str(seed)],
            check=True,
            timeout=300,
            env=env,
        )
    return data, json.loads(truth_path.read_text()), folder


def same_as_before(folder: Path, workload: str, results) -> bool:
    """Whether ``results`` equal the first run's for this input and seed.

    The first run records its results; every later run with the same
    seed must reproduce them exactly.
    """
    path = folder / f"results-{workload}.json"
    encoded = json.loads(json.dumps(results, sort_keys=True))
    if path.exists():
        return json.loads(path.read_text()) == encoded
    _write_atomic(path, json.dumps(encoded, sort_keys=True))
    return True


if __name__ == "__main__":
    generate(sys.argv[1], json.loads(sys.argv[2]), int(sys.argv[3]))
