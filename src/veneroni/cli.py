"""Command-line front end: generation, construction, verification and
transversal queries, with JSON artifacts and stable exit codes.

Each artifact (a flats file, a map, a report, `--json` output) is one line,
`json.dumps` of its tree: `python -m json.tool` pretty-prints it, and
indented files load alike.

Exit codes: 0 all checks pass, 1 a verification failed (the report is
still written) or no generic instance was found, 2 input or usage error.
"""

import argparse
import json
import sys

from . import __version__, checks, maps
from .mpoly import Poly
from .projgeo import (
    FlatsInstance,
    NoGenericInstance,
    ProjPoint,
    flat_meet,
    meeting_param,
    random_general_flats,
    transversal_through,
)
from .scalar import FieldCtx

GENERATE_RANGE = (2, 7)


def parse_field(text):
    """--field qq|fp:<p>, validated by the field constructor."""
    if text == "qq":
        return FieldCtx.rationals()
    if text.startswith("fp:"):
        return FieldCtx.prime(int(text[3:], 10))
    raise ValueError(f"unknown field {text!r} (expected qq or fp:<prime>)")


# ---- artifact serialization ---------------------------------------------


def dump_json(obj, path):
    """Write the JSON tree obj to path (None: stdout) as one line, the text
    of `json.dumps(obj)`, and a newline.  A `Poly` leaf is written as its
    `Poly.to_dict`."""
    text = json.dumps(obj, default=_poly_dict) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _poly_dict(obj):
    if isinstance(obj, Poly):
        return obj.to_dict()
    return json.JSONEncoder().default(obj)  # json's own TypeError


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def map_to_dict(inst, vmap, inv):
    d = inst.to_dict(__version__)
    d["Q"] = list(vmap.Q)
    d["components"] = list(vmap.components)
    d["b"] = [[str(c) for c in row] for row in inv.b]
    d["inverse_components"] = list(inv.inverse_components)
    return d


def map_from_dict(d):
    """Rebuild instance, map, and inverse data verbatim from a map file.
    Keys it does not read, such as the `g` and `dual_flats` of older maps
    (copies of b's rows), are ignored.

    Nothing is trusted here: the verification suite re-derives every
    claimed property, so a tampered file fails the corresponding check
    rather than being silently repaired on load.
    """
    inst = FlatsInstance.from_dict(d)
    ctx = inst.ctx
    n1 = inst.n + 1
    for key in ("Q", "components", "b", "inverse_components"):
        if len(d[key]) != n1:
            raise ValueError(f"{key}: expected {n1} entries, got {len(d[key])}")
    qs = [Poly.from_dict(q, n1, ctx) for q in d["Q"]]
    components = [Poly.from_dict(c, n1, ctx) for c in d["components"]]
    vmap = maps.VeneroniMap(
        n=inst.n, ctx=ctx, flats=list(inst.flats), Q=qs, components=components
    )
    b = [[ctx.parse(s) for s in row] for row in d["b"]]
    if any(len(row) != n1 for row in b):
        raise ValueError(f"b: expected rows of {n1} entries")
    icomps = [Poly.from_dict(c, n1, ctx) for c in d["inverse_components"]]
    return inst, vmap, maps.InverseData(b=b, inverse_components=icomps)


def load_instance(args):
    """Instance from -i (flats or map file) or from -n/--seed flags.

    Returns (inst, vmap, inv) where the map parts are None unless the
    input was a map file.  The file fixes the instance, so a flag that
    would name another one raises ValueError, as does a file whose values
    have the wrong JSON type.  `verify --seed` seeds only the report.
    """
    if args.input is not None:
        flags = {"-n": args.n, "--field": args.field, "--bound": args.bound}
        if args.command != "verify":
            flags["--seed"] = args.seed
        ignored = [flag for flag, value in flags.items() if value is not None]
        if ignored:
            raise ValueError(f"-i FILE fixes the instance; {', '.join(ignored)} would be ignored")
        d = load_json(args.input)
        try:
            if "Q" in d:
                return map_from_dict(d)
            return FlatsInstance.from_dict(d), None, None
        except (TypeError, AttributeError) as exc:
            # a value of the wrong JSON type, e.g. a number for a coefficient
            raise ValueError(f"malformed input file {args.input}: {exc}") from exc
    if args.n is None:
        raise ValueError("need -i FILE or -n N")
    return seeded_instance(args.n, args), None, None


def seeded_instance(n, args):
    """The random instance in P^n of the flags --seed, --field and --bound,
    each None when not given: then 0, qq and 9.  An n outside
    GENERATE_RANGE raises ValueError before any draw."""
    if n is None or not GENERATE_RANGE[0] <= n <= GENERATE_RANGE[1]:
        raise ValueError(f"-n must be in {GENERATE_RANGE[0]}..{GENERATE_RANGE[1]}")
    ctx = parse_field("qq" if args.field is None else args.field)
    bound = 9 if args.bound is None else args.bound
    return random_general_flats(n, args.seed or 0, ctx, bound=bound)


# ---- subcommands ---------------------------------------------------------


def cmd_generate(args):
    inst = seeded_instance(args.n, args)
    dump_json(inst.to_dict(__version__), args.output)
    print(f"retries: {inst.retries}", file=sys.stderr)
    return 0


def cmd_build(args):
    inst, vmap, inv = load_instance(args)
    # a loaded instance is canonical with n >= 2, so no construction
    # invariant can fail: each is a theorem (see `maps`)
    if vmap is None:
        vmap, inv = checks.build_all(inst)
    dump_json(map_to_dict(inst, vmap, inv), args.output)
    return 0


def cmd_verify(args):
    inst, vmap, inv = load_instance(args)
    report = checks.run_suite(
        inst,
        vmap,
        inv,
        level=args.level,
        seed=args.seed,
        timings=args.timings,
        version=__version__,
    )
    if args.output is not None:
        dump_json(report.to_dict(), args.output)
    if args.json:
        if args.output is None:
            dump_json(report.to_dict(), None)
    else:
        for c in report.checks:
            line = f"{c.name}: {c.status}"
            if c.status == "skip":
                line += f" ({c.witness.get('reason', '')})"
            if c.ms is not None:
                line += f" [{c.ms:.3f} ms]"
            print(line)
        print(report.summary)
    return 0 if report.ok else 1


def cmd_transversal(args):
    inst, vmap, _ = load_instance(args)
    ctx = inst.ctx
    try:
        p = ProjPoint.parse(args.point, ctx)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: bad point: {exc}", file=sys.stderr)
        return 2
    if len(p) != inst.n + 1:
        print(f"error: point must have {inst.n + 1} coordinates", file=sys.stderr)
        return 2
    omit = set(args.omit or [])
    if any(j < 0 or j > inst.n for j in omit):
        print(f"error: --omit indices must be in 0..{inst.n}", file=sys.stderr)
        return 2
    queried = [f for f in inst.flats if f.j not in omit]
    res = transversal_through(p, queried, ctx)
    meetings = []
    if res.kind == "unique":
        meetings = [meeting_param(res.line, f) for f in queried]

    def fmt_param(m):
        if m is None or m == "contained":
            return m
        return ":".join(map(str, m))

    if args.json:
        out = {"kind": res.kind, "queried": [f.j for f in queried]}
        if res.kind == "unique":
            out["line"] = [res.line.base.format(), res.line.dir.format()]
            out["meetings"] = [
                {"j": f.j, "param": fmt_param(m)} for f, m in zip(queried, meetings)
            ]
        elif res.kind == "family":
            out["dim"] = res.dim
            out["basis"] = [b.format() for b in res.basis]
        dump_json(out, None)
        return 0
    if res.kind == "unique":
        print("unique transversal")
        print(f"  through: {res.line.base.format()}")
        print(f"  and:     {res.line.dir.format()}")
        for f, m in zip(queried, meetings):
            print(f"  meets flat {f.j} at parameter {fmt_param(m)}")
    elif res.kind == "family":
        print(f"family of transversals, dimension {res.dim}")
        for b in res.basis:
            print(f"  basis point: {b.format()}")
    else:
        print("no transversal")
    return 0


def cmd_demo(args):
    ns = [3, 4] if args.n is None else [args.n]
    seed = args.seed or 0
    failed = False
    for n in ns:
        if n not in (3, 4):
            print(f"error: demos exist for n=3 and n=4 only, not n={n}", file=sys.stderr)
            return 2
        inst = seeded_instance(n, args)
        ctx = inst.ctx
        if n == 3:
            m, failure, lines = checks.transversal_lines_n3(inst.flats, ctx)
            print(f"n=3 seed={seed}: meeting form {m.text(['s', 't'])}")
            if failure is not None:
                print(f"  FAILED: {failure['reason']}")
                failed = True
                continue
            print("  2 transversals to the four lines (discriminant nonzero: True)")
            for line in lines:
                print(f"  explicit line through {line.base.format()} and {line.dir.format()}")
            if not lines:
                print("  the two lines are conjugate over this field")
        else:
            flats = inst.flats
            qs = maps.build_forward_map(flats, ctx).Q[:2]
            res = checks.residual_component_example(
                flats, qs, lambda i, j: flat_meet(flats[i], flats[j], ctx), ctx, seed
            )
            print(f"n=4 seed={seed}: residual plane point")
            if res.status == "pass":
                print(f"  q = {res.witness['q']} lies on Q_0 and Q_1")
                print("  two lines through q meet four of the five flats each")
                print("  no line through q meets all five flats")
            else:
                print(f"  FAILED: {res.witness}")
                failed = True
    return 1 if failed else 0


# ---- entry point ---------------------------------------------------------


def commands():
    """Each subcommand's name, help and handler, in usage order, read at each
    call: a handler replaced on this module (perfbench's tracer) then runs."""
    return (
        ("generate", "write a random general flats file", cmd_generate),
        ("build", "construct the map and its inverse", cmd_build),
        ("verify", "run the full verification suite", cmd_verify),
        ("transversal", "query transversals through a point", cmd_transversal),
        ("demo", "run the n=3 and n=4 narrative examples", cmd_demo),
    )


def build_parser():
    """The argument parser of every command, built once at import as PARSER."""
    about = "Construct and verify the birational transformations of P^n"
    about += " defined by n+1 general codimension-2 flats."
    parser = argparse.ArgumentParser(prog="veneroni", description=about)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text, _ in commands():
        p = sub.add_parser(name, help=text)
        p.add_argument("-n", type=int, default=None, help="ambient dimension")
        # None when not given, so that -i can refuse each (verify --seed
        # reseeds only the report)
        p.add_argument("--seed", type=int, default=None, help="instance seed (default 0)")
        p.add_argument("--bound", type=int, default=None, help="coefficient bound (default 9)")
        p.add_argument("--field", default=None, help="ground field: qq or fp:<prime> (default qq)")
        if name in ("build", "verify", "transversal"):
            p.add_argument("-i", "--input", default=None, help="input JSON file")
        if name in ("generate", "build", "verify"):
            p.add_argument("-o", "--output", default=None, help="output JSON file")
        if name == "verify":
            p.add_argument("--level", choices=("fast", "full"), default="full")
            p.add_argument("--json", action="store_true", help="print the JSON report")
            wall = "record per-check wall time (breaks byte-identical reruns)"
            p.add_argument("--timings", action="store_true", help=wall)
        elif name == "transversal":
            p.add_argument("--point", required=True, help='e.g. "1,2/3,0,5,1"')
            omit = "flat indices to leave out of the query"
            p.add_argument("--omit", type=int, nargs="*", default=None, help=omit)
            p.add_argument("--json", action="store_true")
    return parser


PARSER = build_parser()


def main(argv=None):
    args = PARSER.parse_args(sys.argv[1:] if argv is None else argv)
    handler = next(func for name, _, func in commands() if name == args.command)
    try:
        return handler(args)
    except json.JSONDecodeError as exc:
        print(
            f"error: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except NoGenericInstance as exc:  # no draw was general: not bad input
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, ZeroDivisionError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
