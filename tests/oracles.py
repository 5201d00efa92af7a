"""Reference implementations of the name statistics, kept as test oracles.

These are the direct paths the integer name kernel (skewlab.names)
replaced: every name is built as a tuple from every (x, g), cocycles are
multiplied out step by step, the model-name start is scored with a byte
codec and Fraction half-L1 distances, condition 4 is measured on every
fibre, and separation compares full-length names pairwise.  They walk
the systems themselves and share no counting code with the library.
"""

from fractions import Fraction

from skewlab import EmpiricalDistribution, kantorovich, power_domain
from skewlab.improvement import _tower_structure


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
    return _distribution(ext.name_space(n), names)


def speedup_name_distribution_per_fibre(speedup, labels, n, starts):
    ext = speedup.parent
    names = [
        _speedup_name(speedup, labels, x, g, n)
        for x in starts
        for g in ext.group.elements()
    ]
    return _distribution(ext.name_space(n), names)


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
    length = len(model)
    mul = target.group.mul
    reference = name_distribution_per_fibre(target, n1)

    def averaged(starts):
        names = []
        for t in starts:
            base = [model.coordinate(t + i) for i in range(n1)]
            for h in target.group.elements():
                names.append(tuple((a, mul[g][h]) for a, g in base))
        return _distribution(target.name_space(n1), names)

    return (
        kantorovich(averaged(range(length - n1 + 1)), reference),
        kantorovich(averaged(range(0, length, n1)), reference),
    )


def ladder_distances_per_fibre(speedup, pbar, n):
    """Condition 4 measured on every fibre: one list of per-h distances per base.

    None when the speedup has no constant-height tower with height a
    multiple of n.
    """
    structure, _ = _tower_structure(speedup)
    if structure is None:
        return None
    bases, height = structure
    if height % n:
        return None
    ext = speedup.parent
    group = ext.group
    mul = group.mul
    full = speedup_name_distribution_per_fibre(speedup, pbar, n, power_domain(speedup, n))
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
            per_h.append(kantorovich(_distribution(ext.name_space(n), names), full))
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
            z = speedup.base_image(z)
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
        if kantorovich(_distribution(target.name_space(n), names), reference) < zeta:
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
