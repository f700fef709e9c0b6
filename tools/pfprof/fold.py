#!/usr/bin/env python3
"""Folds pfprof samples into two tables: inclusive share by function
(every inlined frame of a sample counts once) and share by innermost
line that lies in this repo.

    tools/pfprof/fold.py BINARY SAMPLES... [--top N] [--repo SUBSTRING]

Several sample files (reps of the same binary and workload) are pooled.
"""
import argparse
import collections
import subprocess

ap = argparse.ArgumentParser(description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
ap.add_argument("binary")
ap.add_argument("samples", nargs="+")
ap.add_argument("--top", type=int, default=25)
ap.add_argument("--repo", default="/crates/",
                help="a source path containing this is a repo line (default /crates/)")
args = ap.parse_args()

hits = collections.Counter(a for path in args.samples for a in open(path).read().split())
out = subprocess.run(["addr2line", "-a", "-i", "-f", "-C", "-e", args.binary, *hits],
                     capture_output=True, text=True, check=True).stdout.splitlines()

# addr2line -a prints "0x<addr>", then (function, file:line) pairs from the
# innermost inlined frame outwards.
frames, addr = collections.defaultdict(list), None
for line in out:
    if line.startswith("0x"):
        addr, pending = format(int(line, 16), "x"), None
    elif pending is None:
        pending = line
    else:
        frames[addr].append((pending, line.split(" (discriminator")[0]))
        pending = None

total = sum(hits.values())
by_fn, by_line = collections.Counter(), collections.Counter()
for addr, n in hits.items():
    stack = frames.get(addr, [])
    for fn in {fn for fn, _ in stack}:
        by_fn[fn] += n
    where = next((loc for _, loc in stack if args.repo in loc), "(outside the repo)")
    by_line[where.split(args.repo)[-1]] += n

for title, table in (("inclusive by function", by_fn), ("innermost repo line", by_line)):
    print(f"\n== {title}: share of {total} samples ==")
    for key, n in table.most_common(args.top):
        print(f"{100 * n / total:6.2f} %  {n:7d}  {key}")
