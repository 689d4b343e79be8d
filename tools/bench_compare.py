#!/usr/bin/env python3
"""Compare two bench results files record by record.

Usage:
    tools/bench_compare.py A B [--mask-walls] [--only KEY=VALUE ...] [--summary]
    tools/bench_compare.py A --summary

Every bench's `--json PATH` file is JSON Lines: a meta record
(`"kind": "meta"`: the bench, its run parameters, the worker counts and
the host), then one flat record per line (src/exp/sweep/records.h).
A and B must hold the same records in the same order, each with the
same fields in the same order, and every value must be equal token for
token (0.500000 is not 0.5), except:

  - the host fields of meta (jobs, cluster_jobs, nproc, compiler,
    build_type, flags, commit): where and how wide the run went, never
    what it simulated;
  - with --mask-walls, the values of the fields whose name contains
    "wall" (host-timed: wall_s, speedup_wall, ns_per_step_wall).

--only KEY=VALUE compares only the records whose KEY field is VALUE
(every --only must hold, and at least one record must be selected).
The meta records are then not compared: the two files come from
different runs by construction.

--summary prints A's bench, run parameters, record count per kind and
its total record.

Exit status: 0 equal (or summary only), 1 different, 2 bad usage or a
malformed file.
"""

import argparse
import collections
import json
import sys

HOST_FIELDS = frozenset(
    ("jobs", "cluster_jobs", "nproc", "compiler", "build_type", "flags",
     "commit"))
MAX_REPORTED = 20


class Num(str):
    """A JSON number kept as its source text, so 0.5 != 0.500000."""


class Malformed(Exception):
    pass


def load(path):
    """The meta record and the records of results file `path`."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise Malformed(f"{path}: {e.strerror}")
    records = []
    for n, line in enumerate(lines, 1):
        try:
            rec = json.loads(line, parse_float=Num, parse_int=Num)
        except json.JSONDecodeError as e:
            raise Malformed(f"{path}:{n}: not one JSON object: {e}")
        if not isinstance(rec, dict):
            raise Malformed(f"{path}:{n}: not a JSON object")
        for key, value in rec.items():
            if isinstance(value, (dict, list)):
                raise Malformed(f"{path}:{n}: field {key} is nested")
        records.append(rec)
    if not records or records[0].get("kind") != "meta":
        raise Malformed(f"{path}:1: the first line is not a meta record")
    return records[0], records[1:]


def name(rec, index):
    """A record named by its string fields (its parameters)."""
    params = [v for v in rec.values() if type(v) is str]
    return f"record {index + 1} ({'/'.join(params)})"


def same(a, b):
    return type(a) is type(b) and a == b


def diff_record(label, a, b, masked):
    """The differences between records `a` and `b`."""
    if list(a) != list(b):
        return [f"{label}: fields differ: {list(a)} vs {list(b)}"]
    return [f"{label}: {key}: {text(a[key])} vs {text(b[key])}"
            for key in a if not masked(key) and not same(a[key], b[key])]


def text(value):
    """`value` as written in the file (true, 0.500000, moca)."""
    return json.dumps(value) if isinstance(value, bool) else str(value)


def selected(rec, only):
    return all(key in rec and text(rec[key]) == value for key, value in only)


def compare(path_a, path_b, mask_walls=False, only=()):
    """The differences between results files `path_a` and `path_b`,
    and the number of records compared."""
    meta_a, recs_a = load(path_a)
    meta_b, recs_b = load(path_b)
    diffs = []
    if not only:
        diffs += diff_record("meta", meta_a, meta_b,
                             lambda key: key in HOST_FIELDS)
    recs_a = [r for r in recs_a if selected(r, only)]
    recs_b = [r for r in recs_b if selected(r, only)]
    if only and not recs_a and not recs_b:
        diffs.append("--only selects no record in either file")
    masked = (lambda key: "wall" in key) if mask_walls else (lambda key: False)
    for i, (a, b) in enumerate(zip(recs_a, recs_b)):
        diffs += diff_record(name(a, i), a, b, masked)
    for i in range(len(recs_b), len(recs_a)):
        diffs.append(f"{name(recs_a[i], i)}: only in {path_a}")
    for i in range(len(recs_a), len(recs_b)):
        diffs.append(f"{name(recs_b[i], i)}: only in {path_b}")
    return diffs, max(len(recs_a), len(recs_b))


def summary(path):
    meta, recs = load(path)
    params = " ".join(f"{k}={text(v)}" for k, v in meta.items()
                      if k not in HOST_FIELDS and k not in ("kind", "bench"))
    kinds = collections.Counter(r.get("kind", "cell") for r in recs)
    counts = ", ".join(f"{n} {k}" for k, n in kinds.items())
    out = [f"{path}: {meta.get('bench')} {params}: {counts} records"]
    for rec in recs:
        if rec.get("kind") == "total":
            out.append("  total: " + " ".join(
                f"{k}={text(v)}" for k, v in rec.items() if k != "kind"))
    return "\n".join(out)


def parse_only(arg):
    key, sep, value = arg.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {arg!r}")
    return key, value


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a")
    ap.add_argument("b", nargs="?")
    ap.add_argument("--mask-walls", action="store_true")
    ap.add_argument("--only", action="append", type=parse_only, default=[],
                    metavar="KEY=VALUE")
    ap.add_argument("--summary", action="store_true")
    args = ap.parse_args(argv)
    if args.b is None and not args.summary:
        ap.error("give two files to compare, or --summary")
    try:
        if args.summary:
            print(summary(args.a))
        if args.b is None:
            return 0
        diffs, n = compare(args.a, args.b, args.mask_walls, args.only)
    except Malformed as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2
    how = " (walls masked)" if args.mask_walls else ""
    if args.only:
        how += " for " + " ".join(f"{k}={v}" for k, v in args.only)
    if not diffs:
        print(f"{args.a} == {args.b}: {n} records{how}")
        return 0
    for d in diffs[:MAX_REPORTED]:
        print(d)
    if len(diffs) > MAX_REPORTED:
        print(f"... and {len(diffs) - MAX_REPORTED} more")
    print(f"{args.a} != {args.b}: {len(diffs)} differences in {n} "
          f"records{how}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
