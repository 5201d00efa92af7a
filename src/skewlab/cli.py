"""Command line front end.

Systems are described by small JSON files; every command reads them,
runs one of the library constructions, and writes a JSON report with
exact fractions (as "p/q" strings) next to rounded float views.  All
runs are deterministic; the --seed flag is recorded in the output for
bookkeeping but no randomness is consumed anywhere.

Exit codes: 0 on success, 2 when a construction refuses with a
structured reason, 1 on malformed or unreadable input, misuse (a usage
error included) or an --out that cannot be written.  Every exit but
--help writes one JSON body, on stdout when --out cannot be written.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Any, Sequence

from .distributions import kantorovich
from .errors import (
    GroupTooLarge,
    OutOfDomain,
    ParseError,
    PreconditionViolated,
    SkewlabError,
    SpaceMismatch,
    ValidationError,
)
from .groups import FiniteGroup, cyclic, trivial
from .records import Record
from .systems import (
    ExtensionSystem,
    check_extension_ergodic,
    cocycle_product,
    name_distribution,
)


# ---------------------------------------------------------------------------
# system (de)serialization


# a rejected value (its repr) or a group name is echoed whole up to this many
# characters: a 3 MB decimal or a long metric row would otherwise fill the error body
ECHO_LIMIT = 64


def _echo(text: str) -> str:
    """text whole, or its first ECHO_LIMIT characters and its length."""
    if len(text) <= ECHO_LIMIT:
        return text
    return "%s... (%d characters)" % (text[:ECHO_LIMIT], len(text))


# Fraction's exponent and decimal forms are refused unread: Fraction("1e-100000000")
# spends 15 s building 10**100000000, and a 3 MB decimal 2.3 s before it fails
_FRACTION_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _fraction_in(value: Any) -> Fraction:
    """The one reader of outside fractions: a JSON integer, or text such as "-3/10"."""
    try:
        if type(value) is int or (isinstance(value, str) and _FRACTION_TEXT.fullmatch(value)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError("cannot read %s as an exact fraction" % _echo(repr(value)))


# a group's two tables (mul, int_metric) hold order**2 entries each, and its triangle
# check is quadratic: cyclic(256) with its tables takes 7-12 ms and 1 MiB, cyclic(2048)
# 0.6-0.85 s and 69 MiB (2 cores, Python 3.11.7)
GROUP_ORDER_LIMIT = 256

# the triangle check and every transport cost run on ints of the row's common denominator
# L: metrics --n 2 on 128-point Z/256 systems takes 0.13 s at L near 2**256 and 0.11 s at
# L = 128, a row of 128 distinct 1,000-digit denominators 3.3 s (2 cores, Python 3.11.7)
DENOMINATOR_LIMIT = 2**256


def parse_group_spec(data: Any) -> FiniteGroup:
    if not isinstance(data, dict) or "type" not in data:
        raise ParseError("group must be an object with a type field")
    kind = data["type"]
    if kind == "trivial":
        return trivial()
    if kind == "cyclic":
        order = data.get("order")
        if type(order) is not int or order < 1:
            raise ParseError("cyclic group needs a positive integer order")
        if order > GROUP_ORDER_LIMIT:
            raise GroupTooLarge("group order %d exceeds the limit %d" % (order, GROUP_ORDER_LIMIT))
        row = data.get("metric")
        if row is None:
            return cyclic(order)
        # the length first: a long row is refused before its entries are read
        if not isinstance(row, list) or len(row) != order:
            raise ParseError("cyclic group metric must be a list of %d entries" % order)
        values, scale = [], 1
        for i, v in enumerate(row):
            values.append(_fraction_in(v))
            scale *= Fraction(scale, values[-1].denominator).denominator  # lcm(scale, q)
            if scale > DENOMINATOR_LIMIT:
                raise GroupTooLarge(
                    "metric entry %d (%s) takes the common denominator past the limit 2**%d"
                    % (i, _echo(repr(v)), DENOMINATOR_LIMIT.bit_length() - 1)
                )
        try:
            return cyclic(order, values)
        except ValidationError as exc:
            raise ParseError("bad group metric: %s" % exc) from exc
    raise ParseError("unknown group type %s" % _echo(repr(kind)))


def parse_system_spec(data: Any, groups: dict | None = None) -> ExtensionSystem:
    """Build an extension from its JSON description.

    Required fields: size, labels, group, skew; labels and skew are
    lists of length size, skew entries index the group.  Equal group
    specs share one group through the groups memo.
    """
    if not isinstance(data, dict):
        raise ParseError("system description must be an object")
    for key in ("size", "labels", "group", "skew"):
        if key not in data:
            raise ParseError("system description misses %r" % key)
    size = data["size"]
    if type(size) is not int or size < 1:
        raise ParseError("size must be a positive integer")
    labels = data["labels"]
    skew = data["skew"]
    for name, seq in (("labels", labels), ("skew", skew)):
        if not isinstance(seq, list) or len(seq) != size:
            raise ParseError("%s must be a list of length %d" % (name, size))
        if not all(type(v) is int for v in seq):
            raise ParseError("%s entries must be integers" % name)
    groups = {} if groups is None else groups
    spec = json.dumps(data["group"], sort_keys=True)
    if spec not in groups:
        groups[spec] = parse_group_spec(data["group"])
    group = groups[spec]
    try:
        return ExtensionSystem(size, tuple(labels), group, tuple(skew))
    except ValidationError as exc:
        raise ParseError("inconsistent system: %s" % exc) from exc


def load_system(path: str, groups: dict) -> ExtensionSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    # not UTF-8, not JSON, an integer past 4,300 digits, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ParseError("%s is not JSON: %s" % (path, exc)) from exc
    return parse_system_spec(data, groups)


def _load_pair(args: argparse.Namespace) -> tuple[ExtensionSystem, ExtensionSystem]:
    """Target and source, which must share one group (compared by order and
    metric row); every command but metrics also needs both ergodic."""
    groups: dict = {}
    target, source = load_system(args.target, groups), load_system(args.source, groups)
    if target.group != source.group:
        raise ParseError(
            "target group %s (order %d) and source group %s (order %d) differ"
            % (_echo(str(target.group.name)), target.group.order,
               _echo(str(source.group.name)), source.group.order)
        )
    if args.command != "metrics":
        for role, ext in (("target", target), ("source", source)):
            if not check_extension_ergodic(ext).ergodic:
                raise PreconditionViolated(
                    "%s extension is not ergodic: its lap %d does not generate Z/%d"
                    % (role, cocycle_product(ext, 0, ext.size), ext.group.order)
                )
    return target, source


# ---------------------------------------------------------------------------
# report encoding


def _fraction_str(f: Fraction) -> str:
    return "%d/%d" % (f.numerator, f.denominator)


def _encode(obj: Any) -> Any:
    if isinstance(obj, Fraction):
        return {"exact": _fraction_str(obj), "value": float("%.12g" % float(obj))}
    if isinstance(obj, Record):
        return {name: _encode(getattr(obj, name)) for name in obj._fields}
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        # labels, exponents and twists are plain ints, which json writes as they are
        return obj if set(map(type, obj)) <= {int} else [_encode(v) for v in obj]
    return obj


def _emit(payload: Any, out: str | None) -> None:
    text = json.dumps(_encode(payload), indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands: each takes the loaded pair and returns its own report fields


def _cmd_metrics(args: argparse.Namespace, target: ExtensionSystem, source: ExtensionSystem) -> dict:
    dist = kantorovich(
        name_distribution(target, args.n), name_distribution(source, args.n)
    )
    return {
        "n": args.n,
        "target": check_extension_ergodic(target),
        "source": check_extension_ergodic(source),
        "name_distance": dist,
    }


def _list_arg(text: str, flag: str, read) -> tuple:
    """Comma list of values; a malformed entry is a ParseError naming the flag."""
    values = []
    for entry in text.split(","):
        try:
            values.append(read(entry))
        except (ValueError, ParseError) as exc:
            raise ParseError("%s: cannot read %s" % (flag, _echo(repr(entry)))) from exc
    return tuple(values)


def _index_list(text: str | None, flag: str, size: int) -> tuple[int, ...]:
    """Comma list of indices in range(size); all of them when text is empty."""
    if not text:
        return tuple(range(size))
    values = _list_arg(text, flag, int)
    if not all(0 <= v < size for v in values):
        raise ParseError("%s: entries must sit in [0, %d)" % (flag, size))
    return values


def _rect_for(args: argparse.Namespace, source: ExtensionSystem):
    return (
        _index_list(args.rect_base, "--rect-base", source.size),
        _index_list(args.rect_group, "--rect-group", source.group.order),
    )


def _cmd_improve(args: argparse.Namespace, target: ExtensionSystem, source: ExtensionSystem) -> dict:
    from .improvement import bootstrap_regular, improve

    # improve refuses this too, but the bootstrap would refuse other things first
    if args.n > 0 and args.n1 > 0 and args.n1 % args.n:
        raise ValidationError("n1 must be a multiple of n")
    pbar = source.labels
    a1, a2 = _rect_for(args, source)
    current, cert = bootstrap_regular(source, pbar, args.n, args.delta, args.epsilon)
    res = improve(
        target, current, pbar, args.n, args.delta, args.n1, args.delta1,
        a1, a2, args.epsilon, strict=args.strict_schedule,
    )
    return {
        "bootstrap": {"height": cert.height, "domain_mass": cert.domain_mass},
        "report": res.report,
        "labels": list(res.labels),
        "exponent": list(res.speedup.exponent),
        "alpha": list(res.alpha.values),
        "chain_start": res.chain[0],
        "conclusions": res.report.conclusions(),
    }


def _schedule_from(args: argparse.Namespace, source: ExtensionSystem):
    from .driver import IterationSchedule

    epsilon = args.epsilon
    if args.epsilons:
        eps = _list_arg(args.epsilons, "--epsilons", _fraction_in)
    else:
        eps = tuple(epsilon / Fraction(4 * 2 ** k) for k in range(max(args.budget, 1)))
    steps = ((args.n, args.delta, args.n1, args.delta1),)
    rect = (_rect_for(args, source),)
    return IterationSchedule(
        epsilon=epsilon,
        epsilons=eps,
        steps=steps,
        rectangles=rect,
        budget=args.budget,
        strict=args.strict_schedule,
    )


def _cmd_loop(args: argparse.Namespace, target: ExtensionSystem, source: ExtensionSystem) -> dict:
    from .driver import run_factor, run_isomorphism

    schedule = _schedule_from(args, source)
    if args.command == "iso":
        result = run_isomorphism(target, source, source.labels, schedule, copy_zeta=args.copy_zeta)
    else:
        result = run_factor(target, source, source.labels, schedule)
    log = result.log
    last = result.steps[-1] if result.steps else None
    out = {
        "labels": list(result.labels),
        "exponent": list(result.speedup.exponent),
        "beta": list(result.beta.values),
        "chain_start": last.chain[0] if last else None,
        "model_start": last.model.start if last else 0,
        "change_mass": log.change_mass,
        "change_bound": log.change_bound,
        "witness": log.witness,
        "reports": list(log.reports),
    }
    if log.separation_failure is not None:
        out["generator"] = list(log.generator)
        out["separation_failure"] = log.separation_failure
    return out


def _cmd_seed_orbit(args: argparse.Namespace, target: ExtensionSystem, source: ExtensionSystem) -> dict:
    from .driver import seed_from_orbit

    labels, alpha = seed_from_orbit(target, source, args.nlen, args.zeta, n=args.n)
    return {"labels": list(labels), "alpha": list(alpha.values)}


def _fraction_arg(text: str) -> Fraction:
    """A tolerance flag's value; argparse puts the flag's name before the message."""
    try:
        return _fraction_in(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError("%s is not a fraction" % _echo(repr(text))) from exc


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ParseError instead of exiting 2."""

    def error(self, message: str):
        raise ParseError("%s: %s" % (self.prog, message))


# every command in the order usage lists it, with its help
COMMANDS = (
    ("metrics", "ergodicity witnesses and the n-name distance"),
    ("improve", "bootstrap and run one improvement step"),
    ("factor", "build a speedup factoring onto the target"),
    ("iso", "factor loop with generator tracking"),
    ("seed-orbit", "copy one good target orbit onto the source"),
)


def _add_flags(p: argparse.ArgumentParser, name: str) -> None:
    p.add_argument("--target", required=True, help="target system JSON file")
    p.add_argument("--source", required=True, help="source system JSON file")
    p.add_argument("--seed", type=int, default=None, help="recorded, never used")
    p.add_argument("--out", default=None, help="write the JSON report here")
    if name == "metrics":
        p.add_argument("--n", type=int, required=True)
    elif name == "seed-orbit":
        p.add_argument("--nlen", type=int, required=True)
        p.add_argument("--zeta", type=_fraction_arg, required=True)
        p.add_argument("--n", type=int, required=True)
    else:
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--delta", type=_fraction_arg, required=True)
        p.add_argument("--n1", type=int, required=True)
        p.add_argument("--delta1", type=_fraction_arg, required=True)
        p.add_argument("--epsilon", type=_fraction_arg, required=True)
        p.add_argument("--rect-base", default=None, help="comma list of base points")
        p.add_argument("--rect-group", default=None, help="comma list of group elements")
        p.add_argument("--strict-schedule", action="store_true")
    if name in ("factor", "iso"):
        p.add_argument("--budget", type=int, required=True)
        p.add_argument("--epsilons", default=None, help="comma list of iteration tolerances")
    if name == "iso":
        p.add_argument("--copy-zeta", type=_fraction_arg, default=Fraction(1, 10))
    funcs = {"metrics": _cmd_metrics, "improve": _cmd_improve, "seed-orbit": _cmd_seed_orbit}
    p.set_defaults(func=funcs.get(name, _cmd_loop))


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every command; given argv, only the command it names gets its flags.

    Every command is registered with its name and help, so usage and
    --help read the same either way.  argparse reads the command from
    the first token that is no option: if that names no command, argv
    is refused whatever flags the commands have.
    """
    parser = _Parser(
        prog="skewlab",
        description="speedup constructions for finite skew products",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = dict(COMMANDS)
    named = None if argv is None else next((a for a in argv if a in names), None)
    for name, text in COMMANDS:
        p = sub.add_parser(name, help=text)
        if argv is None or name == named:
            _add_flags(p, name)
    return parser


def run_command(argv: Sequence[str]) -> int:
    """Parse argv, load the pair, run the command, emit one JSON body and
    return the exit code; errors give {"error", "detail"} with exit 1 or 2."""
    out = None
    try:
        args = build_parser(argv).parse_args(list(argv))
        out = args.out
        target, source = _load_pair(args)
        payload = {**args.func(args, target, source), "command": args.command, "seed": args.seed}
        code = 0
    except SkewlabError as exc:
        payload = {"error": type(exc).__name__, "detail": str(exc)}
        code = 1 if isinstance(exc, (ParseError, ValidationError, SpaceMismatch, OutOfDomain)) else 2
    try:
        # --out is opened only now, after the run: it may name an input file
        _emit(payload, out)
        return code
    except OSError as exc:
        payload = {"error": "ParseError", "detail": "cannot write %s: %s" % (out, exc)}
    _emit(payload, None)
    return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
