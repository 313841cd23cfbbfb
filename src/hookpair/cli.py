"""Command-line front end.

Subcommands: ``verify`` checks one identity on one partition, ``sweep`` runs
exhaustive checks over a whole box (or the Frobenius family), ``show`` draws
a region, ``dyck`` prints the label word, lattice path, and pairing for one
cut, and ``map`` dumps a bijection as JSON.  Exit status is 0 when every
check passes, 1 when a counterexample is found, 2 on usage errors, and 141
(128 + SIGPIPE, as a shell reports a process killed by it) when standard
output is a pipe that its reader has closed.

The module itself loads only ``errors`` and ``diagrams``.  Each handler
imports the layers it uses: ``verify --theorem 1|2|3`` and ``map`` load
``bijections`` (with ``dyck``), ``dyck`` loads ``dyck``, ``verify --theorem
proj`` loads ``projective``, ``show`` loads ``render`` (and ``projective``
with ``--pq``), and ``sweep`` loads ``sweep`` with the checker of its mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .diagrams import Partition, _IDENTITIES, _decimal, _require_int, build_region
from .errors import CounterexampleFound, HookpairError, NotAnInteger, NotInFamily

SHOW_KINDS = ("D", "R", "T", "V", "SQ", "Tstar")


def _integer(text: str) -> int:
    """The type of every integer option: ``_decimal``, with its message
    shown after the option's name."""
    try:
        return _decimal(text)
    except NotAnInteger as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_case_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=_integer, required=True, help="number of parts")
    sub.add_argument("--n", type=_integer, required=True, help="bound on the parts")
    sub.add_argument(
        "--alpha",
        required=True,
        help="comma-separated parts; trailing zeros may be omitted",
    )


def _partition(args) -> Partition:
    return Partition.from_text(args.alpha, args.k, args.n)


def _cmd_verify(args) -> int:
    p = _partition(args)
    if args.theorem == "proj":
        from .projective import is_class_B, verify_projective

        b = is_class_B(p)
        if b is None:
            raise NotInFamily(f"alpha={p} is not in the n=k+1 Frobenius family")
        report = verify_projective(b)
    else:
        from .bijections import verify_theorem

        report = verify_theorem(p, _decimal(args.theorem))
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    from .sweep import SweepConfig, run_sweep

    theorems = ("projective",) if args.projective else tuple(map(str, _IDENTITIES))
    jobs = args.jobs
    if jobs is None:
        jobs = _decimal(os.environ.get("HOOKPAIR_JOBS", "1"), "HOOKPAIR_JOBS")
    cfg = SweepConfig(
        max_k=args.max_k,
        max_n=args.max_n,
        theorems=theorems,
        out=args.out,
        jobs=jobs,
    )
    report = run_sweep(cfg)
    try:  # a report on stdout's own file starts at offset 0, where the summary would go
        shared = bool(cfg.out) and os.path.samestat(os.stat(cfg.out), os.fstat(1))
    except OSError:  # stdout is closed
        shared = False
    stream = sys.stderr if shared else sys.stdout
    print(f"checked {sum(report.counts.values())} cases: {report.verdict}", file=stream)
    if report.first_counterexample is not None:
        print(json.dumps(report.first_counterexample, sort_keys=True), file=stream)
        return 1
    return 0


def _cmd_show(args) -> int:
    from .render import render_ascii

    p = _partition(args)
    g = build_region(p, args.region)
    diag = None
    if args.pq:
        from .projective import diagonal_spec, is_class_B

        b = is_class_B(p)
        if b is None:
            raise NotInFamily(
                "the diagonal split is defined for the n=k+1 Frobenius family"
            )
        diag = diagonal_spec(b, args.region)
    marks = None
    if args.dots is not None:
        dots = _require_int(args.dots, "--dots", 1)
        marks = [x for x in g if g.arm(x) == dots - 1]
    print(render_ascii(g, diag, marks) if len(g) else "")
    return 0


def _cmd_dyck(args) -> int:
    from .dyck import build_dyck, build_sigma, pair_updown, pairing_tuple

    p = _partition(args)
    s = build_sigma(p, args.i)
    d = build_dyck(s)
    values = ", ".join(map(str, pairing_tuple(pair_updown(d))))
    print(f"sigma_{args.i}: {s}")
    print(d.render_text())
    print(f"P_{args.i}: ({values})")
    return 0


def _cmd_map(args) -> int:
    from .bijections import phi_map, psi_map

    p = _partition(args)
    cmap = phi_map(p) if args.phi else psi_map(p)
    print(json.dumps(cmap.to_json(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hookpair",
        description="exact arm/leg statistics and bijections on skew diagram regions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check one identity on one partition")
    _add_case_arguments(p_verify)
    p_verify.add_argument(
        "--theorem", required=True, choices=(*map(str, _IDENTITIES), "proj")
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="check identities over a whole box")
    p_sweep.add_argument("--max-k", type=_integer, required=True)
    p_sweep.add_argument("--max-n", type=_integer, default=None)
    p_sweep.add_argument(
        "--projective",
        action="store_true",
        help="sweep the n=k+1 Frobenius family instead of the box",
    )
    p_sweep.add_argument("--jobs", type=_integer, default=None)
    p_sweep.add_argument("--out", default=None, help="write the JSON report here")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_show = sub.add_parser("show", help="draw one region")
    _add_case_arguments(p_show)
    p_show.add_argument("--region", required=True, choices=SHOW_KINDS)
    p_show.add_argument(
        "--pq", action="store_true", help="shade the cells on or below the diagonal"
    )
    p_show.add_argument(
        "--dots", type=_integer, default=None, metavar="I",
        help="dot the cells with arm length I-1",
    )
    p_show.set_defaults(func=_cmd_show)

    p_dyck = sub.add_parser(
        "dyck", help="print the label word, the path, and the pairing"
    )
    _add_case_arguments(p_dyck)
    p_dyck.add_argument("--i", type=_integer, required=True)
    p_dyck.set_defaults(func=_cmd_dyck)

    p_map = sub.add_parser("map", help="dump a bijection as JSON")
    _add_case_arguments(p_map)
    which = p_map.add_mutually_exclusive_group(required=True)
    which.add_argument("--phi", action="store_true", help="the strip bijection")
    which.add_argument("--psi", action="store_true", help="the composed bijection")
    p_map.set_defaults(func=_cmd_map)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        if sys.stdout is not None:  # None when fd 1 was closed at start
            sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return status
    except CounterexampleFound as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        if isinstance(exc.case, dict) and "repro" in exc.case:
            print(f"reproduce: {exc.case['repro']}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone (hookpair ... | head): what is left of the output
        # goes to the null device, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 141
    except (HookpairError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
