"""Seeded inputs for the four benchmark workloads.

Each workload is one ``skewlab`` CLI command on a target and a source
system.  The benchmark seed only moves the source's skew flips inside a
family that stays feasible; seed 0 is the reference configuration.  The
target, the labels and the group never move: moving the target's flip or
the label marker made bootstrap refuse (condition 4) or left the output
non-regular.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    size: int
    order: int
    label_points: tuple[int, ...]
    target_skew: dict
    source_skew: dict
    args: tuple[str, ...]
    family: str

    def system(self, skew: dict) -> dict:
        return {
            "size": self.size,
            "labels": [1 if x in self.label_points else 0 for x in range(self.size)],
            "group": {"type": "cyclic", "order": self.order},
            "skew": [skew.get(x, 0) for x in range(self.size)],
        }

    @property
    def name_length(self) -> int:
        """Length of the names the report's final distance compares (--n1, else --n)."""
        flag = "--n1" if "--n1" in self.args else "--n"
        return int(self.args[self.args.index(flag) + 1])

    def argv(self, target_path: str, source_path: str, out_path: str) -> list[str]:
        return [
            self.command, "--target", target_path, "--source", source_path,
            "--out", out_path, *self.args,
        ]


def _shift(seed: int, spread: int) -> int:
    """Seed 0 keeps the reference position; others draw from [-spread, spread]."""
    return 0 if seed == 0 else random.Random(seed).randint(-spread, spread)


def _flips(points, value: int, shift: int, size: int) -> dict:
    return {(x + shift) % size: value for x in points}


def step_z2(seed: int, smoke: bool = False) -> Workload:
    size, n1 = (256, 16) if smoke else (2048, 64)
    return Workload(
        name="step_z2",
        command="improve",
        size=size,
        order=2,
        label_points=(size - 1,),
        target_skew={0: 1},
        source_skew=_flips((size // 2,), 1, 8 * _shift(seed, 8), size),
        args=(
            "--n", "8", "--delta", "1/10", "--n1", str(n1), "--delta1", "1/20",
            "--epsilon", "1/5", "--rect-base", ",".join(map(str, range(0, size, 2))),
        ),
        family="source flip at N/2 + 8k, k in [-8, 8]",
    )


def iso_z2(seed: int, smoke: bool = False) -> Workload:
    size, n1 = (256, 16) if smoke else (1024, 32)
    return Workload(
        name="iso_z2",
        command="iso",
        size=size,
        order=2,
        label_points=(size - 1,),
        target_skew={0: 1},
        source_skew=_flips((size // 2,), 1, 8 * _shift(seed, 8), size),
        args=(
            "--n", "8", "--delta", "1/10", "--n1", str(n1), "--delta1", "1/20",
            "--epsilon", "3/10", "--budget", "3", "--epsilons", "1/4,1/8,1/16",
            "--copy-zeta", "1/10",
        ),
        family="source flip at N/2 + 8k, k in [-8, 8]",
    )


def step_z4(seed: int, smoke: bool = False) -> Workload:
    size = 512
    target = (0, 102, 204, 307, 409)
    source = (73, 220, 259, 367, 443)
    args = ("--n", "8", "--delta", "1/5", "--n1", "8", "--delta1", "1/20", "--epsilon", "1/5")
    if smoke:
        size = 128
        target, source = (0, 26, 51, 77, 102), (18, 55, 65, 92, 111)
        args = ("--n", "4", "--delta", "3/10", "--n1", "4", "--delta1", "1/10", "--epsilon", "1/5")
    return Workload(
        name="step_z4",
        command="improve",
        size=size,
        order=4,
        label_points=(size - 1,),
        target_skew=_flips(target, 1, 0, size),
        source_skew=_flips(source, 1, _shift(seed, 8), size),
        args=args,
        family="all five source flips shifted by k, k in [-8, 8]",
    )


def metrics_z64(seed: int, smoke: bool = False) -> Workload:
    size, order = (32, 8) if smoke else (128, 64)
    k = _shift(seed, 8)
    source = {**_flips((64,), 1, k, size), **_flips((25,), 2, k, size)}
    source.update(_flips((7,), order - 2, k, size))
    return Workload(
        name="metrics_z64",
        command="metrics",
        size=size,
        order=order,
        label_points=(5, 102 % size),
        target_skew={0: 1, 42 % size: 2},
        source_skew=source,
        args=("--n", "2"),
        family="all three source flips shifted by k, k in [-8, 8]",
    )


WORKLOADS = {w.__name__: w for w in (step_z2, iso_z2, step_z4, metrics_z64)}
