"""Sampling maps and exhaustion families."""

import random
from fractions import Fraction

import pytest

from skewlab import (
    AtomTooSmall,
    DiscreteSpace,
    DomainTooSmall,
    EmpiricalDistribution,
    PreconditionViolated,
    ValidationError,
    exhaust_samples,
    kantorovich,
    sample_onto,
)

from conftest import half_l1

SPACE = DiscreteSpace()


def dist_of_map(f, atoms):
    counts = {}
    for v in f.values():
        counts[v] = counts.get(v, 0) + 1
    return EmpiricalDistribution.from_weights(
        SPACE, {a: Fraction(counts.get(a, 0), len(f)) for a in atoms if counts.get(a, 0)}
    )


def recount_counts(nu, atoms, big_k):
    """Endpoint-rounding counts recomputed with plain integer arithmetic."""
    out = []
    cum = Fraction(0)
    prev = 0
    for a in sorted(atoms):
        cum += nu.weight(a)
        here = (cum.numerator * big_k) // cum.denominator
        out.append(here - prev)
        prev = here
    return out


# ---------------------------------------------------------------------------
# sample_onto


def test_sample_even_split():
    nu = EmpiricalDistribution.from_weights(SPACE, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    f = sample_onto(["a", "b"], nu, range(4), Fraction(1, 3))
    assert sorted(f.values()).count("a") == 2
    assert kantorovich(dist_of_map(f, "ab"), nu) == 0


def test_sample_exact_tenths():
    nu = EmpiricalDistribution.from_weights(SPACE, {"a": Fraction(7, 10), "b": Fraction(3, 10)})
    f = sample_onto(["a", "b"], nu, range(10), Fraction(1, 5))
    values = sorted(f.values())
    assert values.count("a") == 7
    assert values.count("b") == 3
    assert kantorovich(dist_of_map(f, "ab"), nu) == 0


def test_sample_rounding_error_third():
    nu = EmpiricalDistribution.from_weights(SPACE, {"a": Fraction(2, 3), "b": Fraction(1, 3)})
    f = sample_onto(["a", "b"], nu, range(4), Fraction(1, 3))
    values = sorted(f.values())
    assert values.count("a") == 2
    assert values.count("b") == 2
    assert kantorovich(dist_of_map(f, "ab"), nu) == Fraction(1, 6)


def test_sample_domain_too_small():
    nu = EmpiricalDistribution.from_weights(SPACE, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    with pytest.raises(DomainTooSmall):
        sample_onto(["a", "b"], nu, range(4), Fraction(1, 4))


def test_sample_atom_too_small():
    nu = EmpiricalDistribution.from_weights(SPACE, {"a": Fraction(9, 10), "b": Fraction(1, 10)})
    with pytest.raises(AtomTooSmall):
        sample_onto(["a", "b"], nu, range(10), Fraction(1, 2))


def test_sample_block_length_tightens_bound():
    nu = EmpiricalDistribution.from_weights(SPACE, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    sample_onto(["a", "b"], nu, range(5), Fraction(1, 2), block_length=1)
    with pytest.raises(DomainTooSmall):
        sample_onto(["a", "b"], nu, range(5), Fraction(1, 2), block_length=2)


def test_sample_randomized_onto_and_recount():
    rng = random.Random(97)
    for _ in range(150):
        n_atoms = rng.randint(2, 5)
        atoms = list(range(n_atoms))
        raw = [rng.randint(2, 9) for _ in atoms]
        total = sum(raw)
        nu = EmpiricalDistribution.from_weights(
            SPACE, {a: Fraction(raw[i], total) for i, a in enumerate(atoms)}
        )
        min_mass = min(Fraction(r, total) for r in raw)
        zeta = Fraction(rng.randint(2, 6), 10)
        big_k = int(1 / min(min_mass, zeta)) + rng.randint(1, 30)
        f = sample_onto(atoms, nu, range(big_k), zeta)
        assert set(f.values()) == set(atoms), "map must be onto"
        err = kantorovich(dist_of_map(f, atoms), nu)
        assert err < zeta
        counts = recount_counts(nu, atoms, big_k)
        got = [sorted(f.values()).count(a) for a in atoms]
        assert got == counts
        expect = half_l1(
            dist_of_map(f, atoms), nu
        )
        assert err == expect


# ---------------------------------------------------------------------------
# exhaust_samples


def test_exhaust_perfect_tiling():
    ground = range(100)
    atom_of = {z: "q" for z in ground}
    fam = exhaust_samples(ground, atom_of, 10, Fraction(1, 20), {"q": 10}, check_bounds=False)
    assert len(fam.samples) == 10
    assert fam.leftover_mass() == 0


def test_exhaust_sample_size_exceeds_ground():
    ground = range(5)
    atom_of = {z: "q" for z in ground}
    with pytest.raises(PreconditionViolated):
        exhaust_samples(ground, atom_of, 6, Fraction(1, 2), {"q": 6})


def test_exhaust_two_atom_greedy():
    # 97 points split 60/37, template (6,4): nine disjoint samples fit
    ground = range(97)
    atom_of = {z: ("u" if z < 60 else "v") for z in ground}
    fam = exhaust_samples(
        ground, atom_of, 10, Fraction(1, 5), {"u": 6, "v": 4}, check_bounds=False
    )
    assert len(fam.samples) == 9
    assert len(fam.leftover()) == 7
    assert fam.leftover_mass() <= Fraction(1, 5)
    for s in fam.samples:
        kinds = [atom_of[z] for z in s]
        assert kinds.count("u") == 6
        assert kinds.count("v") == 4


def test_exhaust_disjointness_and_exact_counts():
    rng = random.Random(5)
    for _ in range(60):
        n_atoms = rng.randint(1, 3)
        counts = [rng.randint(1, 3) for _ in range(n_atoms)]
        size = sum(counts)
        eps = Fraction(rng.randint(3, 5), 10)
        # pools exactly proportional to the template meet the gap bound
        delta = min(Fraction(c, size) for c in counts)
        need = int(Fraction(size, 1) / (eps * delta / 2)) + 1
        reps = need // size + 1
        pools = [c * reps for c in counts]
        ground = list(range(sum(pools)))
        atom_of = {}
        at = 0
        for i, p in enumerate(pools):
            for _ in range(p):
                atom_of[ground[at]] = i
                at += 1
        fam = exhaust_samples(ground, atom_of, size, eps, dict(enumerate(counts)))
        assert fam.leftover_mass() <= eps
        seen = set()
        for s in fam.samples:
            assert not (set(s) & seen)
            seen |= set(s)
            per = [sum(1 for z in s if atom_of[z] == i) for i in range(n_atoms)]
            assert per == counts


def test_exhaust_template_must_sum():
    ground = range(10)
    atom_of = {z: 0 for z in ground}
    with pytest.raises(ValidationError):
        exhaust_samples(ground, atom_of, 4, Fraction(1, 2), {0: 3})
