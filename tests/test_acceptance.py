"""End-to-end acceptance checks.

Each test exercises one stated criterion at its stated tolerance and
prints a single pass/fail line with the measured quantities; the heavy
desk-scale runs are shared through module-scoped fixtures and re-run
from scratch for the determinism check.
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from skewlab import (
    DiscreteSpace,
    EmpiricalDistribution,
    ExtensionSystem,
    IterationSchedule,
    PartialSpeedup,
    WindowSystem,
    apply_speedup,
    bootstrap_regular,
    build_cycles,
    check_extension_ergodic,
    cyclic,
    ergodicity_certificate,
    exhaust_samples,
    improve,
    kantorovich,
    run_factor,
    run_isomorphism,
    sample_onto,
    seed_from_orbit,
    trivial,
    twist,
)
from skewlab.cli import _encode

from conftest import half_l1

SIZE = 2048


def conclude(tag, ok, detail):
    line = "%s %s: %s" % (tag, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def canonical(obj) -> bytes:
    return json.dumps(_encode(obj), sort_keys=True, indent=2).encode()


# ---------------------------------------------------------------------------
# shared desk-scale systems and runners


def pair_trivial():
    tg = trivial()
    target = ExtensionSystem(
        SIZE, tuple(1 if x == SIZE - 1 else 0 for x in range(SIZE)), tg, (0,) * SIZE
    )
    source = ExtensionSystem(
        SIZE,
        tuple(1 if x in (100, 900, 1700) else 0 for x in range(SIZE)),
        tg,
        (0,) * SIZE,
    )
    return target, source


def pair_z2():
    g2 = cyclic(2)
    labels = tuple(1 if x == SIZE - 1 else 0 for x in range(SIZE))
    target = ExtensionSystem(
        SIZE, labels, g2, tuple(1 if x == 0 else 0 for x in range(SIZE))
    )
    source = ExtensionSystem(
        SIZE, labels, g2, tuple(1 if x == 1024 else 0 for x in range(SIZE))
    )
    return target, source


def run_single_step(target, source):
    current, _ = bootstrap_regular(
        source, source.labels, 8, Fraction(1, 10), Fraction(1, 5)
    )
    return improve(
        target, current, source.labels, 8, Fraction(1, 10), 64, Fraction(1, 20),
        tuple(range(0, SIZE, 2)), tuple(range(target.group.order)), Fraction(1, 5),
    )


def run_c6():
    target, source = pair_trivial()
    return run_single_step(target, source)


def run_c7():
    target, source = pair_z2()
    return run_single_step(target, source)


def factor_schedule():
    target, source = pair_z2()
    rect = (tuple(range(SIZE)), (0, 1))
    return target, source, IterationSchedule(
        epsilon=Fraction(3, 10),
        epsilons=(Fraction(1, 10), Fraction(1, 20), Fraction(1, 40)),
        steps=(
            (8, Fraction(1, 10), 32, Fraction(1, 20)),
            (8, Fraction(1, 20), 32, Fraction(1, 40)),
            (8, Fraction(1, 40), 16, Fraction(1, 80)),
        ),
        rectangles=(rect,),
        budget=3,
    )


def run_c8():
    target, source, sched = factor_schedule()
    return run_factor(target, source, source.labels, sched)


def run_c9():
    m = 512
    tg = trivial()
    const = ExtensionSystem(size=m, labels=(0,) * m, group=tg, skew=(0,) * m)
    labels, alpha = seed_from_orbit(const, const, m, Fraction(1, 10), n=8)
    sched = IterationSchedule(
        epsilon=Fraction(1, 5),
        epsilons=(Fraction(1, 10),),
        steps=((8, Fraction(1, 10), 32, Fraction(1, 20)),),
        rectangles=((tuple(range(m)), (0,)),),
        budget=1,
    )
    return labels, alpha, run_factor(const, const, labels, sched)


def run_c10():
    target, source = pair_z2()
    rect = (tuple(range(SIZE)), (0, 1))
    sched = IterationSchedule(
        epsilon=Fraction(3, 10),
        epsilons=(Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)),
        steps=((8, Fraction(1, 10), 32, Fraction(1, 20)),),
        rectangles=(rect,),
        budget=3,
    )
    return run_isomorphism(target, source, source.labels, sched, copy_zeta=Fraction(1, 10))


@pytest.fixture(scope="module")
def c6_run():
    t0 = time.perf_counter()
    res = run_c6()
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def c7_run():
    t0 = time.perf_counter()
    res = run_c7()
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def c8_run():
    t0 = time.perf_counter()
    res = run_c8()
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def c9_run():
    return run_c9()


@pytest.fixture(scope="module")
def c10_run():
    return run_c10()


# ---------------------------------------------------------------------------
# criteria


def test_c01_transport_oracle():
    rng = random.Random(11)
    space = DiscreteSpace()

    def rand_dist():
        k = rng.randint(1, 32)
        keys = rng.sample(range(200), k)
        weights = [rng.randint(1, 50) for _ in keys]
        total = sum(weights)
        return EmpiricalDistribution.from_weights(
            space, {key: Fraction(w, total) for key, w in zip(keys, weights)}
        )

    t0 = time.perf_counter()
    pool = []
    for _ in range(1000):
        d1, d2 = rand_dist(), rand_dist()
        got = kantorovich(d1, d2)
        assert got == half_l1(d1, d2)
        assert kantorovich(d2, d1) == got
        assert kantorovich(d1, d1) == 0
        pool.append(d1)
    for i in range(200):
        a, b, c = pool[i], pool[i + 300], pool[i + 600]
        assert kantorovich(a, c) <= kantorovich(a, b) + kantorovich(b, c)
    dt = time.perf_counter() - t0
    conclude("C1", dt < 10, "1000 pairs equal half-L1, axioms hold (%.2fs)" % dt)


def test_c02_convex_mix_identity():
    rng = random.Random(22)
    space = DiscreteSpace()

    def weights(keys):
        raw = [rng.randint(1, 30) for _ in keys]
        total = sum(raw)
        return {k: Fraction(w, total) for k, w in zip(keys, raw)}

    sharp = 0
    for _ in range(1000):
        keys = rng.sample(range(40), rng.randint(2, 12))
        w1, w2 = weights(keys), weights(keys)
        eps = Fraction(rng.randint(1, 9), 10)
        mix = {
            k: (1 - eps) * w1.get(k, Fraction(0)) + eps * w2.get(k, Fraction(0))
            for k in keys
        }
        v1 = EmpiricalDistribution.from_weights(space, w1)
        v2 = EmpiricalDistribution.from_weights(space, w2)
        vq = EmpiricalDistribution.from_weights(space, mix)
        d1 = kantorovich(v1, vq)
        d2 = kantorovich(v2, vq)
        assert d2 == Fraction(1 - eps, eps) * d1
        if 0 < d1 < eps:
            sharp += 1
            for zeta in (eps, (d1 + eps) / 2):
                assert d1 < zeta <= eps
                assert d2 < zeta / eps
    conclude("C2", sharp > 100, "identity exact on 1000 triples, %d sharp bounds" % sharp)


def test_c03_onto_sampling_contract():
    rng = random.Random(33)
    space = DiscreteSpace()
    for trial in range(500):
        k = rng.randint(2, 8)
        raw = [rng.randint(1, 20) for _ in range(k)]
        total = sum(raw)
        atoms = list(range(k))
        nu_map = {a: Fraction(w, total) for a, w in zip(atoms, raw)}
        nu = EmpiricalDistribution.from_weights(space, nu_map)
        min_mass = min(nu_map.values())
        block = rng.randint(0, 4)
        zeta = Fraction(rng.randint(2, 10), 20)
        bound = min(min_mass, zeta / 2 ** block)
        big_k = int(1 / bound) + rng.randint(1, 30)
        f = sample_onto(
            atoms, nu, range(big_k), zeta, min_mass=min_mass, block_length=block
        )
        counts = Counter(f.values())
        assert set(counts) == set(atoms), "trial %d not onto" % trial

        # independent endpoint recount
        recount = {}
        cum = Fraction(0)
        prev = 0
        for a in sorted(atoms):
            cum += nu_map[a]
            edge = int(cum * big_k)
            recount[a] = edge - prev
            prev = edge
        assert dict(counts) == {a: c for a, c in recount.items() if c}

        err = sum(
            abs(Fraction(counts.get(a, 0), big_k) - nu_map[a]) for a in atoms
        ) / 2
        err2 = sum(
            abs(Fraction(recount[a], big_k) - nu_map[a]) for a in atoms
        ) / 2
        assert err == err2
        assert err < zeta, "trial %d error %s" % (trial, err)
    conclude("C3", True, "500 onto samplings within zeta, recount agrees")


def test_c04_exhaustion_contract():
    rng = random.Random(44)
    for trial in range(200):
        eps = Fraction(rng.randint(1, 3), 8)
        k = rng.randint(2, 4)
        tpl_counts = [rng.randint(1, 4) for _ in range(k)]
        sample_size = sum(tpl_counts)
        min_tpl = min(tpl_counts)
        mult = int(2 * sample_size / (eps * Fraction(min_tpl, sample_size))) + 2
        jitter = [rng.randint(0, c - 1) for c in tpl_counts]
        pools = [c * mult + j for c, j in zip(tpl_counts, jitter)]
        total = sum(pools)

        # keep the jitter only when the distribution gap gate still holds
        min_mass = min(Fraction(p, total) for p in pools)
        gap = sum(
            abs(Fraction(c, sample_size) - Fraction(p, total))
            for c, p in zip(tpl_counts, pools)
        )
        if not (gap / 2 < eps * min_mass / 2 and total > sample_size / (eps * min_mass / 2)):
            pools = [c * mult for c in tpl_counts]
            total = sum(pools)

        ground = range(total)
        atom_of = {}
        cursor = 0
        for a, p in enumerate(pools):
            for z in range(cursor, cursor + p):
                atom_of[z] = a
            cursor += p
        template = {a: c for a, c in enumerate(tpl_counts)}
        fam = exhaust_samples(ground, atom_of, sample_size, eps, template)
        assert fam.leftover_mass() <= eps, "trial %d leftover %s" % (
            trial, fam.leftover_mass(),
        )
        for s in fam.samples:
            assert Counter(atom_of[z] for z in s) == template
    conclude("C4", True, "200 exhaustions: leftover <= eps, exact counts")


def test_c05_cycle_multiplicity():
    checked = 0
    for p in range(1, 9):
        for w in range(p, 65):
            ws = WindowSystem(
                length=p, span=p * w, starts=tuple(p * s for s in range(w))
            )
            samples = {s: [list(range(p))] for s in range(w)}
            cycles = build_cycles(ws, samples, p)
            positions = []
            hits = Counter()
            for cyc in cycles:
                for _, abs_pos in cyc.absolute(ws):
                    for a in abs_pos:
                        positions.append(a)
                        hits[a // p] += 1
            assert len(positions) == len(set(positions)), "(p=%d w=%d)" % (p, w)
            for s in range(p - 1, w - p + 1):
                assert hits[s] == p, "(p=%d w=%d window %d)" % (p, w, s)
            checked += 1
    conclude("C5", True, "%d (p, w) grids injective with interior multiplicity p" % checked)


def test_c06_single_step_trivial_group(c6_run):
    res, dt = c6_run
    r = res.report
    checks = {
        "regular": r.regular,
        "drift": r.partition_drift < Fraction(1, 5),
        "twist": r.twist_size == 0,
        "broken": r.broken_mass < Fraction(1, 20),
        "final": r.name_distance < Fraction(1, 20),
        "good": r.good_set_fraction > Fraction(4, 5),
        "time": dt < 60,
    }
    conclude(
        "C6",
        all(checks.values()),
        "final=%.6f drift=%.6f broken=%.6f good=%.4f (%.1fs) %s"
        % (r.name_distance, r.partition_drift, r.broken_mass,
           r.good_set_fraction, dt, checks),
    )


def test_c07_single_step_group_z2(c7_run):
    res, dt = c7_run
    r = res.report
    checks = {
        "regular": r.regular,
        "drift": r.partition_drift < Fraction(1, 5),
        "twist": r.twist_size < Fraction(1, 5),
        "broken": r.broken_mass < Fraction(1, 20),
        "final": r.name_distance < Fraction(1, 20),
        "good": r.good_set_fraction > Fraction(4, 5),
        "time": dt < 120,
    }
    conclude(
        "C7",
        all(checks.values()),
        "final=%.6f twist=%.6f broken=%.6f good=%.4f (%.1fs) %s"
        % (r.name_distance, r.twist_size, r.broken_mass,
           r.good_set_fraction, dt, checks),
    )


def test_c07_right_action_commutes_exactly(c7_run):
    res, _ = c7_run
    group = res.speedup.parent.group
    twisted = twist(res.speedup.parent, res.alpha)
    spt = PartialSpeedup(twisted, res.speedup.exponent, res.speedup.k_max)
    for z in spt.domain():
        for g in group.elements():
            z1, g1 = apply_speedup(spt, (z, g))
            for h in group.elements():
                z2, g2 = apply_speedup(spt, (z, group.mul[g][h]))
                assert z2 == z1
                assert g2 == group.mul[g1][h]
    conclude("C7b", True, "right action commutes on all %d fibers" % len(spt.domain()))


def test_twisted_output_of_the_c07_step(c7_run):
    res, _ = c7_run
    assert res.twisted == PartialSpeedup(
        twist(res.speedup.parent, res.alpha), res.speedup.exponent, res.speedup.k_max
    )


def test_c08_factor_loop(c8_run):
    res, dt = c8_run
    dist_ok = []
    for k, rep in enumerate(res.log.reports):
        dk = Fraction(1, 10) / 2 ** (k + 1)
        dist_ok.append(rep.name_distance < dk)
    change_ok = res.log.change_mass < Fraction(3, 10)

    words = {}
    for x in range(SIZE):
        w = (res.labels[x], res.labels[(x + 1) % SIZE])
        words.setdefault(w, []).append(x)
    ab, ba, aa = tuple(words[(0, 1)]), tuple(words[(1, 0)]), tuple(words[(0, 0)])
    pairs = ((ab, ba), (ba, ab), (aa, aa), (ab, ab))
    certs = ergodicity_certificate(res.speedup, pairs, Fraction(1, 10))
    certs_ok = len(certs) == 4 and all(c.matched >= Fraction(9, 10) for c in certs)
    conclude(
        "C8",
        all(dist_ok) and change_ok and certs_ok and dt < 600 and res.log.witness.ergodic,
        "dists=%s change=%s certs=%s (%.1fs)"
        % (["%.6f" % r.name_distance for r in res.log.reports],
           res.log.change_mass, [str(c.matched) for c in certs], dt),
    )


def test_c09_identity_sanity(c9_run):
    labels, alpha, res = c9_run
    rep = res.log.reports[0]
    ok = (
        rep.name_distance == 0
        and rep.twist_size == 0
        and all(v == 0 for v in alpha.values)
    )
    conclude(
        "C9", ok,
        "seeded self pair: distance=%s twist=%s alpha identity=%s"
        % (rep.name_distance, rep.twist_size, all(v == 0 for v in alpha.values)),
    )


def test_c10_isomorphism_surrogate(c10_run):
    res = c10_run
    gen_ok = all(rec.defect <= rec.bound for rec in res.log.generator)
    copy_ok = all(rec.copy_distance < Fraction(1, 10) for rec in res.log.generator)
    sep_ok = res.log.separation_failure <= Fraction(3, 10)
    conclude(
        "C10",
        gen_ok and copy_ok and sep_ok and len(res.log.generator) == 3,
        "defects=%s copies=%s separation=%s"
        % ([str(r.defect) for r in res.log.generator],
           [str(r.copy_distance) for r in res.log.generator],
           res.log.separation_failure),
    )


def test_c11_reruns_byte_identical(c6_run, c7_run, c8_run, c9_run, c10_run):
    first = {
        "c6": canonical(c6_run[0]),
        "c7": canonical(c7_run[0]),
        "c8": canonical(c8_run[0]),
        "c9": canonical(c9_run[2]),
        "c10": canonical(c10_run),
    }
    second = {
        "c6": canonical(run_c6()),
        "c7": canonical(run_c7()),
        "c8": canonical(run_c8()),
        "c9": canonical(run_c9()[2]),
        "c10": canonical(run_c10()),
    }
    same = {k: first[k] == second[k] for k in first}
    conclude("C11", all(same.values()), "byte-identical reruns: %s" % same)


def test_pair_systems_are_ergodic():
    for ext in pair_trivial() + pair_z2():
        assert check_extension_ergodic(ext).ergodic
