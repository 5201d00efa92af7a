"""Output checks that share no code with skewlab.

The benchmark recounts the name statistics of a report from its own walk
over the report's labels, exponent and twist, with integer counts on
the cyclic group Z/m (addition mod m), and compares the result with the
exact distance the report states.  Nothing here imports skewlab or the
repository's tests.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction


class OracleError(Exception):
    """A report failed one of the benchmark's checks."""


def _fraction(value) -> Fraction:
    return Fraction(value["exact"])


def _twisted_skew(system: dict, twist: list[int]) -> list[int]:
    """Skew conjugated by the twist: twist(x+1) + skew(x) - twist(x) mod m."""
    size = system["size"]
    m = system["group"]["order"]
    skew = system["skew"]
    return [(twist[(x + 1) % size] + skew[x] - twist[x]) % m for x in range(size)]


def power_domain(exponent: list[int], steps: int) -> list[int]:
    """Points from which `steps` consecutive steps of the exponent map stay defined."""
    size = len(exponent)
    reach = [None] * size  # defined steps from x, capped at `steps`
    for x0 in range(size):
        path = []
        x = x0
        while reach[x] is None and exponent[x] and len(path) <= steps:
            path.append(x)
            x = (x + exponent[x]) % size
        if reach[x] is None and exponent[x]:
            reach[x0] = steps  # walked past the cap: only x0 is settled
            continue
        tail = reach[x] or 0
        for y in reversed(path):
            tail = min(tail + 1, steps)
            reach[y] = tail
        if reach[x0] is None:
            reach[x0] = 0
    return [x for x in range(size) if reach[x] >= steps]


def name_counts(
    system: dict, length: int, *, labels=None, exponent=None, twist=None
) -> tuple[Counter, int]:
    """Counts of (labels, group track) names of the given length, and their total.

    Without an exponent the walk is the plain rotation from every point;
    with one it follows x -> x + k(x) from the points with `length`
    defined steps.  Every name is read from each fibre g, which adds g to
    the whole group track.
    """
    size = system["size"]
    m = system["group"]["order"]
    labels = system["labels"] if labels is None else labels
    skew = system["skew"] if twist is None else _twisted_skew(system, twist)
    if exponent is None:
        exponent = [1] * size
        starts = range(size)
    else:
        starts = power_domain(exponent, length)
    prefix = [0]
    for i in range(2 * size):
        prefix.append((prefix[-1] + skew[i % size]) % m)
    counts: Counter = Counter()
    for x0 in starts:
        word = []
        track = []
        x, g = x0, 0
        for i in range(length):
            word.append(labels[x])
            track.append(g)
            if i < length - 1:
                k = exponent[x]
                if not k:
                    raise OracleError("name from %d leaves the exponent's domain" % x0)
                g = (g + prefix[x + k] - prefix[x]) % m
                x = (x + k) % size
        word = tuple(word)
        for h in range(m):
            counts[word, tuple((t + h) % m for t in track)] += 1
    return counts, len(starts) * m


def _excess(a: Counter, a_total: int, b: Counter, b_total: int):
    """Integer supply and demand after cancelling common mass (scale a_total*b_total)."""
    supply, demand = {}, {}
    for key in a.keys() | b.keys():
        diff = a.get(key, 0) * b_total - b.get(key, 0) * a_total
        if diff > 0:
            supply[key] = diff
        elif diff < 0:
            demand[key] = -diff
    return supply, demand


def total_variation(a: Counter, a_total: int, b: Counter, b_total: int) -> Fraction:
    supply, _ = _excess(a, a_total, b, b_total)
    return Fraction(sum(supply.values()), a_total * b_total)


def _max_flow(supply: dict, demand: dict, close) -> int:
    """Max flow from supply to demand over the `close` pairs (Dinic's algorithm)."""
    s_keys, d_keys = list(supply), list(demand)
    n_nodes = len(s_keys) + len(d_keys) + 2
    src, snk = 0, n_nodes - 1
    head: list[list[int]] = [[] for _ in range(n_nodes)]
    to: list[int] = []
    cap: list[int] = []

    def arc(u: int, v: int, c: int) -> None:
        head[u].append(len(to))
        to.append(v)
        cap.append(c)
        head[v].append(len(to))
        to.append(u)
        cap.append(0)

    unbounded = sum(supply.values())
    for i, s in enumerate(s_keys):
        arc(src, 1 + i, supply[s])
        for j, d in enumerate(d_keys):
            if close(s, d):
                arc(1 + i, 1 + len(s_keys) + j, unbounded)
    for j, d in enumerate(d_keys):
        arc(1 + len(s_keys) + j, snk, demand[d])

    def push(u: int, limit: int, level: list[int], it: list[int]) -> int:
        if u == snk:
            return limit
        while it[u] < len(head[u]):
            e = head[u][it[u]]
            v = to[e]
            if cap[e] and level[v] == level[u] + 1:
                got = push(v, min(limit, cap[e]), level, it)
                if got:
                    cap[e] -= got
                    cap[e ^ 1] += got
                    return got
            it[u] += 1
        return 0

    total = 0
    while True:
        level = [-1] * n_nodes
        level[src] = 0
        queue = [src]
        for u in queue:
            for e in head[u]:
                if cap[e] and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[snk] < 0:
            return total
        it = [0] * n_nodes
        while True:
            got = push(src, unbounded, level, it)
            if not got:
                break
            total += got


def exact_distance(a: Counter, a_total: int, b: Counter, b_total: int, order: int) -> Fraction:
    """Kantorovich distance of two name distributions over Z/order.

    The name metric is the max over coordinates of 1 for differing
    labels and min(|g - h| mod m) / (m // 2) for group elements.  For
    m <= 3 it is discrete, so the distance is the total variation.  For
    m = 4 its only values are 0, 1/2 and 1: every unit of excess moves
    at cost 1/2 or 1, so the cost is TV - F/2 with F the most mass that
    can move between names at distance 1/2.
    """
    supply, demand = _excess(a, a_total, b, b_total)
    scale = a_total * b_total
    tv = sum(supply.values())
    if order <= 3:
        return Fraction(tv, scale)
    if order != 4:
        raise OracleError("no exact recount for Z/%d" % order)

    def close(s, d) -> bool:
        return s[0] == d[0] and all((x - y) % 4 != 2 for x, y in zip(s[1], d[1]))

    return Fraction(2 * tv - _max_flow(supply, demand, close), 2 * scale)


def _iso_domain(exponent: list[int], start: int, length: int) -> list[int]:
    """Exponent of the final partial speedup: the chain of `length` points from start.

    The iso report carries the completed (total) speedup; completion
    only gives exponents to points the partial one left open, so the
    partial map is the completed one restricted to the chain.
    """
    size = len(exponent)
    partial = [0] * size
    x = start
    for _ in range(length - 1):
        partial[x] = exponent[x]
        x = (x + exponent[x]) % size
    return partial


def _iso_verdicts(data: dict) -> list[bool]:
    """Each iteration's six conclusions, read off its report, plus the ergodicity witness."""
    out = []
    for rep in data["reports"]:
        eps = _fraction(rep["epsilon"])
        delta1 = _fraction(rep["delta1"])
        out += [
            rep["regular"] is True,
            _fraction(rep["partition_drift"]) < eps,
            _fraction(rep["twist_size"]) < eps,
            _fraction(rep["broken_mass"]) < delta1,
            _fraction(rep["name_distance"]) < delta1,
            _fraction(rep["good_set_fraction"]) > 1 - eps,
        ]
    return out + [data["witness"]["ergodic"] is True]


def check_report(command: str, length: int, target: dict, source: dict, text: bytes):
    """Recount a report's final name distance; return (distance, verdicts).

    `length` is the name length the command was given (--n1, or --n for
    metrics).  Raises OracleError when the report disagrees with the
    recount or misses a field.
    """
    try:
        data = json.loads(text)
        if data.get("command") != command:
            raise OracleError("report is for %r, not %r" % (data.get("command"), command))
        order = target["group"]["order"]
        reference = name_counts(target, length)
        if command == "metrics":
            stated = _fraction(data["name_distance"])
            tv = total_variation(*reference, *name_counts(source, length))
            d_min = Fraction(1, max(order // 2, 1))
            if not d_min * tv <= stated <= tv:
                raise OracleError("distance %s outside [%s, %s]" % (stated, d_min * tv, tv))
            verdicts = [data["target"]["ergodic"] is True, data["source"]["ergodic"] is True]
            return stated, verdicts
        if command == "improve":
            stated = _fraction(data["report"]["name_distance"])
            exponent, twist = data["exponent"], data["alpha"]
            verdicts = list(data["conclusions"].values())
        elif command == "iso":
            last = data["reports"][-1]
            stated = _fraction(last["name_distance"])
            exponent = _iso_domain(data["exponent"], data["chain_start"], last["model_length"])
            twist = data["beta"]
            verdicts = _iso_verdicts(data)
        else:
            raise OracleError("no check for command %r" % command)
        counts = name_counts(
            source, length, labels=data["labels"], exponent=exponent, twist=twist
        )
        recount = exact_distance(*reference, *counts, order)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise OracleError("malformed report: %s: %s" % (type(exc).__name__, exc)) from exc
    if recount != stated:
        raise OracleError("report states distance %s, recount gives %s" % (stated, recount))
    if not all(isinstance(v, bool) for v in verdicts):
        raise OracleError("a verdict is not a boolean")
    return stated, verdicts
