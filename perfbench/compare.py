#!/usr/bin/env python3
"""Compares two saved benchmark outputs metric by metric.

    python3 perfbench/compare.py base.txt change.txt

Each file is the full stdout of one `run.py` invocation. Results are only
compared when both carry the same host fingerprint (nproc, kernel, CPU
model, rustc) and workload; otherwise the comparison is refused, so no
ratio ever divides by a number measured on another host.
"""

import json
import sys


def load(path):
    host = workload = result = None
    with open(path) as f:
        for line in f:
            if line.startswith("host "):
                host = json.loads(line[len("host "):])
            elif line.startswith("workload "):
                workload = line.split(":", 1)[0]
            elif line.startswith("{"):
                result = json.loads(line)
    if host is None or result is None:
        sys.exit(f"{path}: no host fingerprint or result line")
    return host, workload, result


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    (h0, w0, r0), (h1, w1, r1) = load(sys.argv[1]), load(sys.argv[2])
    if h0 != h1:
        print(f"refused: host fingerprints differ\n  {h0}\n  {h1}", file=sys.stderr)
        return 2
    if w0 != w1:
        print(f"refused: different workloads ({w0} vs {w1})", file=sys.stderr)
        return 2
    for name, m0 in r0["metrics"].items():
        m1 = r1["metrics"].get(name)
        if m1 is None:
            continue
        a, b = m0["value"], m1["value"]
        ratio = f"{b / a:.4f}" if a else "n/a"
        print(f"{name:32s} {a:14.4f} {b:14.4f} {m0['unit']:9s} x{ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
