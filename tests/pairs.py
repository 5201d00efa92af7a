"""Named test pairs as integer definitions, and the golden report cases.

A pair is a target and a source system description, as the command line
reads them.  Unless a pair says otherwise, each system carries label 1
at N - 1 and 0 elsewhere (the marker label) and skew +1 at its listed
flips.  The workload pairs repeat the benchmark's four configurations
with their seed shifts written out, so nothing here reads the
benchmark's code.

CASES lists every golden case as (id, pair name, argv without --target,
--source and --out); `golden.py` runs them and writes `golden.json`.
"""

from functools import partial

# the benchmark's seeds and the source shift each draws
SHIFTS = {0: 0, 3: -1, 11: 6}


def system(size, order, skew, *, marks=None, metric=None):
    """A system of the given size over Z/order; skew maps points to group elements."""
    marks = (size - 1,) if marks is None else marks
    group = {"type": "cyclic", "order": order}
    if metric is not None:
        group["metric"] = list(metric)
    return {
        "size": size,
        "labels": [1 if x in marks else 0 for x in range(size)],
        "group": group,
        "skew": [skew.get(x, 0) for x in range(size)],
    }


def flips(points, size, shift=0, value=1):
    return {(x + shift) % size: value for x in points}


def two_flip(size, source_flip=None):
    """Z/2, target flip {0}, source flip {N/2} unless given."""
    source_flip = size // 2 if source_flip is None else source_flip
    return system(size, 2, {0: 1}), system(size, 2, {source_flip: 1})


def five_flip(size, order, metric=None):
    """N = 4096 or the small family's N = 1024."""
    target, source = {
        4096: ((0, 819, 1638, 2457, 3276), (585, 1755, 2051, 2925, 3510)),
        1024: ((0, 204, 409, 614, 819), (146, 438, 512, 731, 877)),
    }[size]
    return (
        system(size, order, flips(target, size), metric=metric),
        system(size, order, flips(source, size), metric=metric),
    )


def step_z4(shift, smoke):
    size, target, source = 512, (0, 102, 204, 307, 409), (73, 220, 259, 367, 443)
    if smoke:
        size, target, source = 128, (0, 26, 51, 77, 102), (18, 55, 65, 92, 111)
    return system(size, 4, flips(target, size)), system(size, 4, flips(source, size, shift))


def metrics_z64(shift, smoke):
    size, order = (32, 8) if smoke else (128, 64)
    marks = (5, 102 % size)
    source = {
        **flips((64,), size, shift), **flips((25,), size, shift, 2),
        **flips((7,), size, shift, order - 2),
    }
    return (
        system(size, order, {0: 1, 42 % size: 2}, marks=marks),
        system(size, order, source, marks=marks),
    )


PAIRS = {
    "two_flip_8": partial(two_flip, 8),
    "two_flip_2048": partial(two_flip, 2048),
    "five_flip_z2": partial(five_flip, 4096, 2),
    "five_flip_z3": partial(five_flip, 4096, 3),
    "five_flip_z4": partial(five_flip, 4096, 4),
    "small_five_flip_z3_half": partial(five_flip, 1024, 3, ("0", "1/2", "1/2")),
    "mixed_size_z2": lambda: (system(2048, 2, {0: 1}), system(8192, 2, {4096: 1})),
}


def workload_argv(name, smoke):
    if name == "step_z2":
        size, n1 = (256, "16") if smoke else (2048, "64")
        return (
            "improve", "--n", "8", "--delta", "1/10", "--n1", n1, "--delta1", "1/20",
            "--epsilon", "1/5", "--rect-base", ",".join(map(str, range(0, size, 2))),
        )
    if name == "iso_z2":
        return (
            "iso", "--n", "8", "--delta", "1/10", "--n1", "16" if smoke else "32",
            "--delta1", "1/20", "--epsilon", "3/10", "--budget", "3",
            "--epsilons", "1/4,1/8,1/16", "--copy-zeta", "1/10",
        )
    if name == "step_z4" and smoke:
        return ("improve", "--n", "4", "--delta", "3/10", "--n1", "4", "--delta1", "1/10", "--epsilon", "1/5")
    if name == "step_z4":
        return ("improve", "--n", "8", "--delta", "1/5", "--n1", "8", "--delta1", "1/20", "--epsilon", "1/5")
    return ("metrics", "--n", "2")


CASES = []
for seed, shift in SHIFTS.items():
    for smoke in (False, True):
        tag = "_s%d%s" % (seed, "_smoke" if smoke else "")
        # the Z/2 workloads move the source flip by 8 per unit of shift
        step, iso = (256, 256) if smoke else (2048, 1024)
        PAIRS["step_z2" + tag] = partial(two_flip, step, step // 2 + 8 * shift)
        PAIRS["iso_z2" + tag] = partial(two_flip, iso, iso // 2 + 8 * shift)
        PAIRS["step_z4" + tag] = partial(step_z4, shift, smoke)
        PAIRS["metrics_z64" + tag] = partial(metrics_z64, shift, smoke)
        for name in ("step_z2", "iso_z2", "step_z4", "metrics_z64"):
            CASES.append((name + tag, name + tag, workload_argv(name, smoke)))

LOOP = ("--n", "8", "--delta", "1/10", "--n1", "32", "--delta1", "1/20", "--epsilon", "3/10")
# the iso_z2 inputs under both loops; iso at budget 3 is the workload case iso_z2_s0
for budget in ("0", "2", "3"):
    for command in ("factor", "iso"):
        if (command, budget) != ("iso", "3"):
            CASES.append((
                "%s_b%s_iso_z2" % (command, budget), "iso_z2_s0",
                (command, *LOOP, "--budget", budget, "--epsilons", "1/4,1/8,1/16"),
            ))

STEP = ("--n", "8", "--delta", "1/5", "--n1", "32", "--delta1", "1/20", "--epsilon", "1/5")
for order in (2, 3, 4):
    CASES.append(("improve_five_flip_z%d" % order, "five_flip_z%d" % order, ("improve", *STEP)))
SMALL = "small_five_flip_z3_half"
CASES += [
    ("metrics_" + SMALL, SMALL, ("metrics", "--n", "8")),
    ("improve_" + SMALL, SMALL, ("improve", *STEP)),
    ("factor_" + SMALL, SMALL, ("factor", *STEP, "--budget", "2", "--epsilons", "1/8,1/16")),
    ("iso_" + SMALL, SMALL, ("iso", *STEP, "--budget", "2", "--epsilons", "1/8,1/16")),
    ("seed_orbit_" + SMALL, SMALL, ("seed-orbit", "--nlen", "512", "--zeta", "1/10", "--n", "8")),
    ("improve_mixed_size_z2", "mixed_size_z2", ("improve", *STEP)),
    # the refusals that the CI smoke steps pin
    ("improve_strict_2048", "two_flip_2048", (
        "improve", "--n", "8", "--delta", "1/10", "--n1", "64", "--delta1", "1/20",
        "--epsilon", "1/5", "--strict-schedule",
    )),
    ("factor_strict_2048", "two_flip_2048", (
        "factor", "--n", "8", "--delta", "1/100", "--n1", "64", "--delta1", "1/20",
        "--epsilon", "3/10", "--strict-schedule", "--budget", "1", "--epsilons", "1/40",
    )),
    ("improve_n1_12_8", "two_flip_8", (
        "improve", "--n", "8", "--delta", "1/10", "--n1", "12", "--delta1", "1/20", "--epsilon", "1/5",
    )),
    ("factor_n1_12_8", "two_flip_8", (
        "factor", "--n", "8", "--delta", "1/10", "--n1", "12", "--delta1", "1/20",
        "--epsilon", "1/5", "--budget", "1",
    )),
]
