"""Reference implementations kept as test oracles.

Most are the direct paths the integer name kernel (skewlab.names)
replaced: every name is built as a tuple from every (x, g), cocycles are
multiplied out step by step, the model-name start is scored with a byte
codec and Fraction half-L1 distances, condition 4 is measured on every
fibre, and separation compares full-length names pairwise.  They walk
the systems themselves and share no counting code with the library.

Three replaced the integer kernels for non-discrete groups: the Fraction
successive-shortest-path transport solver, the space distances read from
the Fraction metric tables with every name coordinate compared, and the
cubic group-table validator that checks invariance and the triangle
inequality on every triple.

Two are orbit walks that names.Walk and one prefix table replaced:
rotation scoring walks every rotation's chain step by step, and
regularity condition 3 compares tower names on every fibre.

Two are the quadratic loops of the improvement step: the power domain
walks m steps from every point, and rotation scoring compares every
rotation slot by slot.

Two are the tower walks that the speedup's step table and
towers.tower replaced: the tower is walked from every base point with
its exponent, and a ladder walks every block from its start.

One is the generator window search that names.Walk replaced: every
centred (2m+1)-word is built as a tuple by stepping the total map back
and forward from each point.

The last is the report encoder that dispatches on every element of
every list, where the CLI's encoder hands a list of plain ints to json
as it is.
"""

import heapq
from fractions import Fraction

from skewlab import DiscreteSpace, EmpiricalDistribution, NameSpace, kantorovich
from skewlab.records import Record
from skewlab.towers import tower


def cocycle_loop(ext, x, k):
    """Product of k skew values from x, newest factor on the left."""
    mul = ext.group.mul
    acc = ext.group.identity
    for i in range(k):
        acc = mul[ext.skew[(x + i) % ext.size]][acc]
    return acc


def _speedup_name(speedup, labels, x, g, length):
    ext = speedup.parent
    out = []
    for i in range(length):
        out.append((labels[x], g))
        if i < length - 1:
            k = speedup.exponent[x]
            assert k > 0, "walk left the speedup domain"
            g = ext.group.mul[cocycle_loop(ext, x, k)][g]
            x = (x + k) % ext.size
    return tuple(out)


def _distribution(space, names):
    counts = {}
    for nm in names:
        counts[nm] = counts.get(nm, 0) + 1
    total = len(names)
    return EmpiricalDistribution.from_weights(
        space, {k: Fraction(v, total) for k, v in counts.items()}
    )


def name_distribution_per_fibre(ext, n, labels=None):
    """n-names from every (x, g), each walked with ext.step."""
    if labels is None:
        labels = ext.labels
    names = []
    for x in range(ext.size):
        for g in ext.group.elements():
            nm = []
            y, h = x, g
            for _ in range(n):
                nm.append((labels[y], h))
                y, h = ext.step(y, h)
            names.append(tuple(nm))
    return _distribution(NameSpace(ext.group, n), names)


def speedup_name_distribution_per_fibre(speedup, labels, n, starts):
    ext = speedup.parent
    names = [
        _speedup_name(speedup, labels, x, g, n)
        for x in starts
        for g in ext.group.elements()
    ]
    return _distribution(NameSpace(ext.group, n), names)


def choose_start_bytes(target, length, n1):
    """Model-name start by byte-coded windows and Fraction half-L1 scores."""
    big = target.size + length + n1
    order = target.group.order
    alphabet = {a: i for i, a in enumerate(target.alphabet())}
    assert len(alphabet) * order <= 256, "byte codec holds 256 coordinates"
    codes = bytearray(big)
    g = target.group.identity
    for t in range(big):
        x = t % target.size
        codes[t] = alphabet[target.labels[x]] * order + g
        g = target.group.mul[target.skew[x]][g]
    codes = bytes(codes)
    tables = []
    for h in range(order):
        table = bytearray(256)
        for idx in range(len(alphabet)):
            for gi in range(order):
                table[idx * order + gi] = idx * order + target.group.mul[gi][h]
        tables.append(bytes(table))

    def half_l1(a, a_total, b, b_total):
        gap = Fraction(0)
        for key in set(a) | set(b):
            gap += abs(Fraction(a.get(key, 0), a_total) - Fraction(b.get(key, 0), b_total))
        return gap / 2

    best = None
    rung_offsets = range(0, length, n1)
    window_count = length - n1 + 1
    for x0 in range(target.size):
        rungs = {}
        for t in rung_offsets:
            key = codes[x0 + t : x0 + t + n1]
            rungs[key] = rungs.get(key, 0) + 1
        avg = {}
        for t in range(x0, x0 + window_count):
            for table in tables:
                key = codes[t : t + n1].translate(table)
                avg[key] = avg.get(key, 0) + 1
        d = half_l1(rungs, len(rung_offsets), avg, window_count * order)
        if best is None or d < best[0]:
            best = (d, x0)
    return best[1]


def model_distances_per_fibre(target, model):
    """(window, block) distances of a model name, every translate built."""
    n1 = model.n1
    length = len(model.labels)
    mul = target.group.mul
    reference = name_distribution_per_fibre(target, n1)

    def averaged(starts):
        names = []
        for t in starts:
            base = list(zip(model.labels[t : t + n1], model.groups[t : t + n1]))
            for h in target.group.elements():
                names.append(tuple((a, mul[g][h]) for a, g in base))
        return _distribution(NameSpace(target.group, n1), names)

    return (
        kantorovich(averaged(range(length - n1 + 1)), reference),
        kantorovich(averaged(range(0, length, n1)), reference),
    )


def ladder_distances_per_fibre(speedup, pbar, n):
    """Condition 4 measured on every fibre: one list of per-h distances per base.

    None when the speedup has no constant-height tower with height a
    multiple of n.
    """
    columns, why = tower(speedup)
    if why is not None:
        return None
    bases, height = [c[0] for c in columns], len(columns[0])
    if height % n:
        return None
    ext = speedup.parent
    group = ext.group
    mul = group.mul
    full = speedup_name_distribution_per_fibre(speedup, pbar, n, power_domain_walked(speedup, n))
    out = []
    for b in bases:
        rung_starts = []
        z, w = b, group.identity
        for i in range(height):
            if i % n == 0:
                rung_starts.append((z, w))
            if i < height - 1:
                k = speedup.exponent[z]
                w = mul[cocycle_loop(ext, z, k)][w]
                z = (z + k) % ext.size
        per_h = []
        for h in group.elements():
            names = [_speedup_name(speedup, pbar, s, mul[w0][h], n) for s, w0 in rung_starts]
            per_h.append(kantorovich(_distribution(NameSpace(ext.group, n), names), full))
        out.append(per_h)
    return out


def separation_failure_pairwise(speedup, labels):
    """Share of points whose full-length label name is not unique."""
    size = speedup.parent.size
    names = {}
    for x in range(size):
        z = x
        nm = []
        for _ in range(size):
            nm.append(labels[z])
            z = (z + speedup.exponent[z]) % size
        key = tuple(nm)
        names[key] = names.get(key, 0) + 1
    return Fraction(sum(c for c in names.values() if c > 1), size)


def unseparated_points(labels):
    """Points minus distinct full-length rotation names of the label word."""
    n = len(labels)
    return n - len({tuple(labels[(x + i) % n] for i in range(n)) for x in range(n)})


def good_rungs_per_fibre(speedup, starts, n1, a1, a2, bound):
    """(rung, h) pairs whose n1-orbit hits a1 x a2 more than bound, one walk each."""
    ext = speedup.parent
    good = 0
    for s in starts:
        for h in ext.group.elements():
            hits = 0
            z, g = s, h
            for i in range(n1):
                if z in a1 and g in a2:
                    hits += 1
                if i < n1 - 1:
                    k = speedup.exponent[z]
                    g = ext.group.mul[cocycle_loop(ext, z, k)][g]
                    z = (z + k) % ext.size
            if Fraction(hits, n1) > bound:
                good += 1
    return good


def seed_per_fibre(target, source, n_len, zeta, n):
    """Labels and twist values copied from the first good target segment, or None."""
    group = target.group
    reference = name_distribution_per_fibre(target, n)
    for x in range(target.size):
        word = []
        y, g = x, group.identity
        for _ in range(n_len):
            word.append((target.labels[y], g))
            y, g = target.step(y, g)
        names = [
            tuple((a, group.mul[g][h]) for a, g in word[t : t + n])
            for t in range(n_len - n + 1)
            for h in group.elements()
        ]
        if kantorovich(_distribution(NameSpace(target.group, n), names), reference) < zeta:
            break
    else:
        return None
    junk = max(target.alphabet()) + 1
    labels = [junk] * source.size
    alpha = [group.identity] * source.size
    acc = group.identity
    for i in range(n_len):
        labels[i] = word[i][0]
        alpha[i] = group.mul[word[i][1]][group.inv[acc]]
        acc = group.mul[source.skew[i]][acc]
    return tuple(labels), tuple(alpha)


def subgroup_walk(m, lap, steps):
    """(ergodic, cycle length, splitting point) of a lap on Z/m, by walking
    lap, 2 lap, ... back to 0 and splitting off the least element missed."""
    reached = [0]
    g = lap % m
    while g != 0:
        reached.append(g)
        g = (g + lap) % m
    missed = [h for h in range(m) if h not in reached]
    return not missed, steps * len(reached), (0, missed[0]) if missed else None


def cubic_group_check(order, mul, inv, identity, metric):
    """First violated group or metric axiom, checked on every triple; None if valid."""
    m = order
    if m < 1:
        return "group order must be positive"
    if len(mul) != m or any(len(row) != m for row in mul):
        return "multiplication table must be order x order"
    if len(inv) != m or len(metric) != m:
        return "inverse and metric tables must have one row per element"
    if not (0 <= identity < m):
        return "identity index out of range"
    for a in range(m):
        if mul[identity][a] != a or mul[a][identity] != a:
            return "identity fails on element %d" % a
        if mul[inv[a]][a] != identity or mul[a][inv[a]] != identity:
            return "inverse fails on element %d" % a
    for a in range(m):
        for b in range(m):
            ab = mul[a][b]
            for c in range(m):
                if mul[ab][c] != mul[a][mul[b][c]]:
                    return "associativity fails at (%d, %d, %d)" % (a, b, c)
    for a in range(m):
        if len(metric[a]) != m:
            return "metric row %d has wrong length" % a
        if metric[a][a] != 0:
            return "metric not zero on diagonal"
        for b in range(m):
            d = metric[a][b]
            if a != b and d <= 0:
                return "metric not positive off diagonal"
            if d > 1:
                return "metric exceeds 1"
            if d != metric[b][a]:
                return "metric not symmetric"
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if metric[a][b] > metric[a][c] + metric[c][b]:
                    return "triangle inequality fails"
                if metric[mul[c][a]][mul[c][b]] != metric[a][b]:
                    return "metric not left invariant"
                if metric[mul[a][c]][mul[b][c]] != metric[a][b]:
                    return "metric not right invariant"
    return None


def fraction_transport(supply, demand, dist):
    """Min-cost transport by successive shortest paths on Fractions.

    Nodes: 0 = source, 1..ns = suppliers, ns+1..ns+nd = consumers,
    ns+nd+1 = sink.  Johnson potentials keep reduced costs nonnegative so
    Dijkstra stays valid.  Ties break on node index.
    """
    ns = len(supply)
    nd = len(demand)
    n_nodes = ns + nd + 2
    src = 0
    snk = ns + nd + 1

    cost_sd = [[dist(supply[i][0], demand[j][0]) for j in range(nd)] for i in range(ns)]

    remaining_supply = [w for _, w in supply]
    remaining_demand = [w for _, w in demand]
    flow = [[Fraction(0)] * nd for _ in range(ns)]
    potential = [Fraction(0)] * n_nodes
    total_cost = Fraction(0)
    left = sum(remaining_supply, Fraction(0))

    while left > 0:
        dist_to = [None] * n_nodes
        prev = [None] * n_nodes
        dist_to[src] = Fraction(0)
        heap = [(Fraction(0), src)]
        while heap:
            d_u, u = heapq.heappop(heap)
            if dist_to[u] is None or d_u > dist_to[u]:
                continue
            if u == src:
                for i in range(ns):
                    if remaining_supply[i] > 0:
                        nd_i = d_u + potential[src] - potential[1 + i]
                        v = 1 + i
                        if dist_to[v] is None or nd_i < dist_to[v]:
                            dist_to[v] = nd_i
                            prev[v] = (src, None)
                            heapq.heappush(heap, (nd_i, v))
            elif 1 <= u <= ns:
                i = u - 1
                for j in range(nd):
                    w = d_u + cost_sd[i][j] + potential[u] - potential[1 + ns + j]
                    v = 1 + ns + j
                    if dist_to[v] is None or w < dist_to[v]:
                        dist_to[v] = w
                        prev[v] = (u, ("f", i, j))
                        heapq.heappush(heap, (w, v))
            elif u != snk:
                j = u - 1 - ns
                if remaining_demand[j] > 0:
                    w = d_u + potential[u] - potential[snk]
                    if dist_to[snk] is None or w < dist_to[snk]:
                        dist_to[snk] = w
                        prev[snk] = (u, None)
                        heapq.heappush(heap, (w, snk))
                for i in range(ns):
                    if flow[i][j] > 0:
                        w = d_u - cost_sd[i][j] + potential[u] - potential[1 + i]
                        v = 1 + i
                        if dist_to[v] is None or w < dist_to[v]:
                            dist_to[v] = w
                            prev[v] = (u, ("b", i, j))
                            heapq.heappush(heap, (w, v))
        assert dist_to[snk] is not None, "transport network disconnected"
        for v in range(n_nodes):
            if dist_to[v] is not None:
                potential[v] += dist_to[v]
        path = []
        v = snk
        while v != src:
            u, arc = prev[v]
            path.append((u, v, arc))
            v = u
        path.reverse()
        bottleneck = left
        for u, v, arc in path:
            if u == src:
                bottleneck = min(bottleneck, remaining_supply[v - 1])
            elif v == snk:
                bottleneck = min(bottleneck, remaining_demand[u - 1 - ns])
            elif arc is not None and arc[0] == "b":
                bottleneck = min(bottleneck, flow[arc[1]][arc[2]])
        for u, v, arc in path:
            if u == src:
                remaining_supply[v - 1] -= bottleneck
            elif v == snk:
                remaining_demand[u - 1 - ns] -= bottleneck
            elif arc[0] == "f":
                flow[arc[1]][arc[2]] += bottleneck
                total_cost += bottleneck * cost_sd[arc[1]][arc[2]]
            else:
                flow[arc[1]][arc[2]] -= bottleneck
                total_cost -= bottleneck * cost_sd[arc[1]][arc[2]]
        left -= bottleneck
    return total_cost


def fraction_dist(space, a, b):
    """Distance of a space read from the Fraction metric table, no early exit."""
    if isinstance(space, DiscreteSpace):
        return Fraction(int(a != b))
    assert isinstance(space, NameSpace) and len(a) == len(b) == space.length
    metric = space.group.metric
    return max(Fraction(1) if x != y else metric[g][h] for (x, g), (y, h) in zip(a, b))


def fraction_kantorovich(d1, d2):
    """Kantorovich distance through the Fraction solver, common mass cancelled."""
    a = d1.as_dict()
    b = d2.as_dict()
    supply = []
    demand = []
    for k in sorted(set(a) | set(b)):
        wa = a.get(k, Fraction(0))
        wb = b.get(k, Fraction(0))
        if wa > wb:
            supply.append((k, wa - wb))
        elif wb > wa:
            demand.append((k, wb - wa))
    if not supply:
        return Fraction(0)
    return fraction_transport(supply, demand, lambda a, b: fraction_dist(d1.space, a, b))


def rotation_walked(speedup, pbar, starts, n, model):
    """(rotation, mismatches) of the improvement step, every chain walked.

    Rotation r runs through len(model.labels) / n consecutive ladder
    blocks from the r-th start, multiplying one cocycle loop per step; a
    seam jumps from a block's last point to the next block's first.
    """
    ext = speedup.parent
    mul = ext.group.mul
    blocks = []
    for s in starts:
        block = [s]
        for _ in range(n - 1):
            block.append((block[-1] + speedup.exponent[block[-1]]) % ext.size)
        blocks.append(block)
    best = None
    for r in range(len(blocks)):
        chain = [z for i in range(len(model.labels) // n) for z in blocks[(r + i) % len(blocks)]]
        score = 0
        g = ext.group.identity
        for t, z in enumerate(chain):
            if t:
                y = chain[t - 1]
                k = speedup.exponent[y] if t % n else (z - y) % ext.size or ext.size
                g = mul[cocycle_loop(ext, y, k)][g]
            score += (pbar[z] != model.labels[t]) + (g != model.groups[t])
        if best is None or score < best[0]:
            best = (score, r)
    return best[1], best[0]


def tower_name_counts_per_fibre(speedup, pbar):
    """Distinct full-height tower names over the bases, one count per fibre h.

    None when the speedup has no constant-height tower.
    """
    columns, why = tower(speedup)
    if why is not None:
        return None
    bases, height = [c[0] for c in columns], len(columns[0])
    return [
        len({_speedup_name(speedup, pbar, b, h, height) for b in bases})
        for h in speedup.parent.group.elements()
    ]


def power_domain_walked(speedup, m):
    """Base points from which m speedup steps stay defined, m steps walked from each."""
    n = speedup.parent.size
    out = []
    for x in range(n):
        y = x
        for _ in range(m):
            k = speedup.exponent[y]
            if k == 0:
                break
            y = (y + k) % n
        else:
            out.append(x)
    return tuple(out)


def rotation_direct(group, track, q, labels, groups, stride):
    """(mismatches, s) of the best rotation, every rotation compared slot by slot."""
    mul, inv = group.mul, group.inv
    total = len(track)
    best = None
    for s in range(0, total, stride):
        score = 0
        for t in range(len(labels)):
            score += track[(s + t) % total] != labels[t]
            score += mul[q[s + t]][inv[q[s]]] != groups[t]
        if best is None or score < best[0]:
            best = (score, s)
    return best


def tower_walked(speedup):
    """(columns, None) of the speedup's constant-height tower, or ((), reason).

    Every domain point that no domain point maps to is a base; its column
    is walked with the exponent up to the first point outside the domain.
    """
    size = speedup.parent.size
    exponent = speedup.exponent
    dom = [x for x in range(size) if exponent[x]]
    images = {(x + exponent[x]) % size for x in dom}
    columns = []
    for b in dom:
        if b not in images:
            column = [b]
            while exponent[column[-1]]:
                column.append((column[-1] + exponent[column[-1]]) % size)
            columns.append(tuple(column))
    if not columns:
        return (), "domain has no entry points (a cycle)"
    if sum(len(c) for c in columns) - len(columns) != len(dom):
        return (), "domain contains points unreachable from any base"
    heights = sorted({len(c) - 1 for c in columns})
    if len(heights) != 1:
        return (), "columns have unequal heights %s" % heights
    return tuple(columns), None


def ladder_walked(speedup, base, height, n):
    """Blocks of n consecutive tower levels, each walked from its start, in start order."""
    size = speedup.parent.size
    starts = []
    for b in base:
        z = b
        for i in range(height):
            if i % n == 0:
                starts.append(z)
            if i < height - 1:
                z = (z + speedup.exponent[z]) % size
    blocks = []
    for start in sorted(starts):
        block = [start]
        for _ in range(n - 1):
            block.append((block[-1] + speedup.exponent[block[-1]]) % size)
        blocks.append(tuple(block))
    return tuple(blocks)


def majority_defect_centred(speedup, labels, target_set, bound):
    """(window, defect) of the majority vote over centred label words, m upward.

    The class of x at window m is its label word from m steps back to m
    steps forward under the total map, built as a tuple; the search
    stops once the defect is within the bound or m reaches the size.
    """
    size = speedup.parent.size
    forward = {x: (x + speedup.exponent[x]) % size for x in range(size)}
    backward = {y: x for x, y in forward.items()}
    inside = set(target_set)
    m = 0
    while True:
        words = {}
        for x in range(size):
            z = x
            for _ in range(m):
                z = backward[z]
            word = []
            for _ in range(2 * m + 1):
                word.append(labels[z])
                z = forward[z]
            words.setdefault(tuple(word), []).append(x)
        bad = 0
        for points in words.values():
            ins = len([x for x in points if x in inside])
            bad += min(ins, len(points) - ins)
        defect = Fraction(bad, size)
        if defect <= bound or m >= size:
            return m, defect
        m += 1


def encode_each(obj):
    """A report payload as JSON-ready values, every list element dispatched."""
    if isinstance(obj, Fraction):
        return {"exact": "%d/%d" % (obj.numerator, obj.denominator), "value": float("%.12g" % float(obj))}
    if isinstance(obj, Record):
        return {name: encode_each(getattr(obj, name)) for name in obj._fields}
    if isinstance(obj, dict):
        return {str(k): encode_each(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_each(v) for v in obj]
    return obj
