"""Command-line interface.

Exit codes: 0 success (and schurian for `check --schurity`), 2 budget
exceeded, 3 non-schurian, 64 usage or malformed input, 65 validation
failure.

Each subcommand takes only the budget flags it reads:

  enumerate      --time-limit, --jobs
  verify-paper   --time-limit, --jobs

Every other limit is a fixed module constant: the group order caps, the
enumeration order cap and the automorphism search's node budget.  Whatever
subcommand trips one, `main` prints the `budget exceeded` line and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import constructions as cons
from . import group as grp
from . import schurity as sch
from . import sring as sr
from . import verify as ver
from .enumeration import (
    FILTERS,
    _new_stats,
    classify_up_to_cayley,
    enumerate_srings,
    filter_rings,
)
from .errors import BudgetExceeded

EX_OK = 0
EX_BUDGET = 2
EX_NONSCHURIAN = 3
EX_USAGE = 64
EX_DATA = 65


def _parse_group(text):
    try:
        orders = [int(t) for t in text.split(",") if t.strip()]
        return grp.AbelianGroup(orders)
    except (ValueError, TypeError) as e:
        raise SystemExit(_usage_error("bad group spec %r: %s" % (text, e)))


def _usage_error(msg):
    print("error: %s" % msg, file=sys.stderr)
    return EX_USAGE


def _read_json(path):
    """The JSON document in a file, or on stdin for "-"; exits 64 when it
    cannot be read or parsed."""
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as e:
        raise SystemExit(_usage_error(str(e)))
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        print("malformed JSON: %s" % e, file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _ring_from(data):
    try:
        return sr.from_json_dict(data)
    except sr.SRingViolation as e:
        print("invalid S-ring: %s" % e, file=sys.stderr)
        raise SystemExit(EX_DATA)
    except (KeyError, ValueError, TypeError) as e:
        print("malformed ring object: %s" % e, file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _read_ring(path):
    return _ring_from(_read_json(path))


def _emit(text, out):
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _emit_ring(ring, out):
    _emit(ring.to_json(), out)


def cmd_enumerate(args):
    g = _parse_group(args.group)
    stats = _new_stats()
    t0 = time.monotonic()
    rings = enumerate_srings(g, jobs=args.jobs, time_limit=args.time_limit, stats=stats)
    seconds = time.monotonic() - t0
    if args.filter:
        try:
            for name in args.filter.split(","):
                rings = filter_rings(rings, name.strip())
        except KeyError as e:
            return _usage_error("unknown filter %s" % e)
    if args.up_to_cayley:
        classes = classify_up_to_cayley(rings)
        rings = [rep for rep, _ in classes]
        sizes = [size for _, size in classes]
    else:
        sizes = None
    doc = {
        "group": list(g.orders),
        "count": len(rings),
        "seconds": round(seconds, 3),
        "prunes": stats,
        "rings": [r.to_json_dict() for r in rings],
    }
    if sizes is not None:
        doc["orbit_sizes"] = sizes
    _emit(json.dumps(doc, separators=(",", ":")), args.output)
    return EX_OK


def _schurity(ring):
    """`is_schurian` on the ring with |Aut| and the stabilizer orbits
    printed."""
    rep = sch.is_schurian(ring)
    print("|Aut| = %d" % rep.aut_order)
    print(
        "stabilizer orbits: %s"
        % json.dumps([[list(ring.group.elements[i]) for i in o] for o in rep.stabilizer_orbits])
    )
    return rep


def cmd_check(args):
    ring = _read_ring(args.ring)
    print("valid, rank %d" % ring.rank)
    if not args.schurity:
        return EX_OK
    rep = _schurity(ring)
    if rep.schurian:
        print("schurian")
        return EX_OK
    print("non-schurian; witness: %s" % json.dumps(rep.witness))
    return EX_NONSCHURIAN


def cmd_cyclotomic(args):
    g = _parse_group(args.group)
    maps = []
    for spec in args.map:
        try:
            images = json.loads(spec)
            maps.append(grp.map_from_generator_images(g, [tuple(t) for t in images]))
        except (json.JSONDecodeError, ValueError, TypeError) as e:
            return _usage_error("bad --map %r: %s" % (spec, e))
    try:
        ring = cons.cyclotomic(g, maps)
    except ValueError as e:
        return _usage_error(str(e))
    _emit_ring(ring, args.output)
    return EX_OK


def cmd_table1(args):
    try:
        ring = cons.table1(args.row, args.n, mirror=args.mirror)
    except cons.CatalogSizeMismatch as e:
        print("catalog discrepancy: %s" % e, file=sys.stderr)
        return EX_DATA
    except (IndexError, ValueError) as e:
        return _usage_error(str(e))
    _emit_ring(ring, args.output)
    return EX_OK


def cmd_tensor(args):
    a, b = _read_ring(args.left), _read_ring(args.right)
    _emit_ring(cons.tensor(a, b), args.output)
    return EX_OK


def cmd_wreath(args):
    a, b = _read_ring(args.left), _read_ring(args.right)
    _emit_ring(cons.wreath(a, b), args.output)
    return EX_OK


def cmd_aut(args):
    rep = _schurity(_read_ring(args.ring))
    print("schurian" if rep.schurian else "non-schurian")
    return EX_OK


def cmd_classify(args):
    data = _read_json(args.rings)
    items = data.get("rings") if isinstance(data, dict) else data
    if not isinstance(items, list):
        return _usage_error("expected a list of rings or an object with a \"rings\" list")
    rings = [_ring_from(d) for d in items]
    try:
        classes = classify_up_to_cayley(rings)
    except ValueError as e:  # rings over different groups, or not a union of orbits
        return _usage_error(str(e))
    doc = {
        "count": len(classes),
        "classes": [
            {"size": size, "representative": rep.to_json_dict()} for rep, size in classes
        ],
    }
    _emit(json.dumps(doc, separators=(",", ":")), args.output)
    return EX_OK


def cmd_verify_paper(args):
    report = ver.run_claims(
        args.n,
        time_limit=args.time_limit,
        jobs=args.jobs,
        progress=(lambda s: print("... " + s, file=sys.stderr)) if args.verbose else None,
    )
    for c in report.claims:
        print("%-28s %-6s %8.2fs  %s" % (c.id, c.status.upper(), c.seconds, c.detail))
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report.to_json_dict(), f, indent=2)
    if any(c.status == "budget" for c in report.claims):
        return EX_BUDGET
    return EX_OK if report.ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="schur",
        description="S-rings over finite abelian groups: enumeration, "
        "construction, and schurity testing.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(q):
        q.add_argument("-o", "--output", default=None, help="write result to this file")

    def add_budgets(q):
        q.add_argument("--time-limit", type=float, help="wall-clock limit in seconds")
        q.add_argument(
            "--jobs",
            type=int,
            default=os.cpu_count() or 1,
            help="worker count for enumeration (default: available parallelism)",
        )

    q = sub.add_parser("enumerate", help="enumerate all S-rings over a group")
    q.add_argument("--group", required=True, help="comma-separated cyclic orders, e.g. 3,9")
    q.add_argument("--up-to-cayley", action="store_true")
    q.add_argument("--filter", default=None, help="comma-separated: %s" % ",".join(sorted(FILTERS)))
    add_common(q)
    add_budgets(q)
    q.set_defaults(fn=cmd_enumerate)

    q = sub.add_parser("check", help="validate a ring JSON; optionally test schurity")
    q.add_argument("ring", help="path to ring JSON, or - for stdin")
    q.add_argument("--schurity", action="store_true")
    q.set_defaults(fn=cmd_check)

    q = sub.add_parser("cyclotomic", help="orbit ring of automorphisms")
    q.add_argument("--group", required=True)
    q.add_argument(
        "--map",
        action="append",
        default=[],
        help="JSON list of generator images, one per canonical generator; repeatable",
    )
    add_common(q)
    q.set_defaults(fn=cmd_cyclotomic)

    q = sub.add_parser("table1", help="catalog ring over Z3 x Z3^n")
    q.add_argument("--row", type=int, required=True, help="row index 0..9")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--mirror", action="store_true", help="use the other order-3 resolution of c1")
    add_common(q)
    q.set_defaults(fn=cmd_table1)

    q = sub.add_parser("tensor", help="tensor product of two rings")
    q.add_argument("left")
    q.add_argument("right")
    add_common(q)
    q.set_defaults(fn=cmd_tensor)

    q = sub.add_parser("wreath", help="wreath product of two rings")
    q.add_argument("left")
    q.add_argument("right")
    add_common(q)
    q.set_defaults(fn=cmd_wreath)

    q = sub.add_parser("aut", help="automorphism group, stabilizer orbits, schurity")
    q.add_argument("ring")
    q.set_defaults(fn=cmd_aut)

    q = sub.add_parser("classify", help="Cayley-isomorphism classes of a ring list")
    q.add_argument("rings", help="enumerate output JSON (or array), - for stdin")
    add_common(q)
    q.set_defaults(fn=cmd_classify)

    q = sub.add_parser("verify-paper", help="run the desk-scale verification suite")
    q.add_argument("--n", type=int, required=True, help="1, 2, or 3 (3 is long-running)")
    q.add_argument("--report", default=None, help="also write the JSON report here")
    q.add_argument("--verbose", action="store_true")
    add_budgets(q)
    q.set_defaults(fn=cmd_verify_paper)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse uses exit code 2, which this tool reserves for budgets
        if e.code not in (0, None):
            raise SystemExit(EX_USAGE)
        raise
    try:
        code = args.fn(args)
    except BudgetExceeded as e:
        print("budget exceeded: %s" % e, file=sys.stderr)
        code = EX_BUDGET
    raise SystemExit(code)


if __name__ == "__main__":
    main()
