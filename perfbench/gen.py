"""Seeded generator of the benchmark's bundle files.

Every workload is a hyper-relational bundle written as plain TSV fact files
(the program's documented input format).  Entity and relation popularity
follow a Zipf law, so a few hub entities are shared by many facts.  The
training vocabulary (``t_`` prefix) and the inductive vocabulary (``i_``
prefix) are disjoint.  Fact counts and qualifier counts are fixed per
workload and only their contents depend on the seed, so every seed gives the
same number of queries and close to the same graph sizes.

This module uses only the standard library and numpy; it never imports the
program.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ZIPF_EXPONENT = 1.0


@dataclass(frozen=True)
class Side:
    """One vocabulary's fact population.

    ``splits`` gives the fact count of each split drawn from this vocabulary:
    the graph first, then (on the inductive side) valid and test.  The graph
    facts together use every entity, primary relation and key, so every
    valid and test fact is answerable.  Within each split, fact i has
    ``qualifier_cycle[i % len]`` qualifiers before a seeded shuffle, so the
    query count of every split is fixed.
    """

    prefix: str
    splits: tuple[int, ...]
    entities: int
    primaries: int
    keys: int
    qualifier_cycle: tuple[int, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    task: str               # "train" or "eval"
    structure: str          # "parallel" or "relation-driven"
    train: Side             # splits: (train,)
    inference: Side         # splits: (inference, valid, test)


WORKLOADS = {
    w.name: w for w in (
        Workload("train-guard", "train", "parallel",
                 train=Side("t_", (130,), 75, 8, 6, (0, 0, 0, 1, 2)),
                 inference=Side("i_", (120, 12, 10), 70, 8, 6, (0, 1, 2))),
        Workload("train-ultra", "train", "relation-driven",
                 train=Side("t_", (60,), 50, 8, 8, (1, 2, 3, 4)),
                 inference=Side("i_", (80, 10, 10), 60, 8, 8, (1, 2, 3, 4))),
        Workload("eval-large", "eval", "parallel",
                 train=Side("t_", (40,), 30, 4, 4, (0, 1, 2)),
                 inference=Side("i_", (2500, 0, 44), 700, 24, 16, (0, 1, 2))),
    )
}


def _zipf(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_EXPONENT
    return w / w.sum()


def _draw_facts(side: Side, rng: np.random.Generator) -> list[list[tuple]]:
    """Distinct facts ``(head, relation, tail, ((key, value), ...))``, one list per split."""
    counts = []
    for n in side.splits:
        split = np.resize(np.asarray(side.qualifier_cycle), n)
        rng.shuffle(split)
        counts.extend(split)
    ent_p, prim_p, key_p = _zipf(side.entities), _zipf(side.primaries), _zipf(side.keys)
    facts: list[list] = []
    seen: set = set()
    for q in counts:
        while True:
            h, t = rng.choice(side.entities, size=2, p=ent_p)
            r = int(rng.choice(side.primaries, p=prim_p))
            ks = rng.choice(side.keys, size=int(q), replace=False, p=key_p)
            vs = rng.choice(side.entities, size=int(q), p=ent_p)
            fact = [int(h), r, int(t), [[int(k), int(v)] for k, v in zip(ks, vs)]]
            key = _freeze(fact)
            if key not in seen:
                seen.add(key)
                facts.append(fact)
                break
    _cover(facts[:side.splits[0]], side, rng, seen)
    bounds = np.cumsum((0,) + side.splits)
    return [[_freeze(f) for f in facts[a:b]] for a, b in zip(bounds[:-1], bounds[1:])]


def _freeze(fact: list) -> tuple:
    return (fact[0], fact[1], fact[2], tuple(tuple(kv) for kv in fact[3]))


def _cover(graph: list[list], side: Side, rng: np.random.Generator, seen: set) -> None:
    """Rewrite slots of graph facts until every id of the side occurs in the graph.

    A slot is rewritten only when its current id occurs elsewhere too, so
    coverage once reached is never lost, and only when the fact stays distinct.
    """
    def slots(kind: str) -> list[tuple[int, int, int]]:
        # (fact, position, qualifier) triples naming every slot of a kind; positions
        # 0-2 are head, primary relation and tail, 3 a qualifier value, 4 its key
        out = []
        for fi, f in enumerate(graph):
            if kind == "entity":
                out += [(fi, 0, -1), (fi, 2, -1)]
                out += [(fi, 3, qi) for qi in range(len(f[3]))]
            elif kind == "primary":
                out.append((fi, 1, -1))
            else:
                out += [(fi, 4, qi) for qi in range(len(f[3]))]
        return out

    def get(s):
        fi, pos, qi = s
        f = graph[fi]
        return f[pos] if pos < 3 else f[3][qi][1 if pos == 3 else 0]

    def put(s, value):
        fi, pos, qi = s
        f = graph[fi]
        if pos < 3:
            f[pos] = value
        else:
            f[3][qi][1 if pos == 3 else 0] = value

    for kind, size in (("entity", side.entities), ("primary", side.primaries),
                       ("key", side.keys)):
        pool = slots(kind)
        count = np.zeros(size, dtype=np.int64)
        for s in pool:
            count[get(s)] += 1
        for missing in np.flatnonzero(count == 0):
            while True:
                s = pool[int(rng.integers(len(pool)))]
                old = get(s)
                if count[old] < 2:
                    continue
                before = _freeze(graph[s[0]])
                put(s, int(missing))
                after = _freeze(graph[s[0]])
                if after in seen:
                    put(s, old)
                    continue
                seen.discard(before)
                seen.add(after)
                count[old] -= 1
                count[missing] += 1
                break


def _line(fact: tuple, prefix: str) -> str:
    h, r, t, quals = fact
    parts = [f"{prefix}e{h}", f"{prefix}r{r}", f"{prefix}e{t}"]
    for k, v in quals:
        parts += [f"{prefix}k{k}", f"{prefix}e{v}"]
    return "\t".join(parts)


def _write(path: Path, facts: list[tuple], prefix: str) -> None:
    path.write_bytes("".join(_line(f, prefix) + "\n" for f in facts).encode("utf-8"))


def generate(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write the bundle's four split files into ``out_dir``; return their spec.

    The same ``(workload, seed)`` always writes byte-identical files.
    """
    rng = np.random.default_rng([seed, sum(workload.name.encode())])
    out_dir.mkdir(parents=True, exist_ok=True)
    (train,) = _draw_facts(workload.train, rng)
    graph, valid, test = _draw_facts(workload.inference, rng)
    _write(out_dir / "train.txt", train, workload.train.prefix)
    _write(out_dir / "inference.txt", graph, workload.inference.prefix)
    _write(out_dir / "valid.txt", valid, workload.inference.prefix)
    _write(out_dir / "test.txt", test, workload.inference.prefix)

    def queries(facts):
        return sum(2 + len(f[3]) for f in facts)

    return {
        "facts": {"train": len(train), "inference": len(graph),
                  "valid": len(valid), "test": len(test)},
        "queries": {"train": queries(train), "valid": queries(valid),
                    "test": queries(test)},
    }
