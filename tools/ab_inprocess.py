"""In-process A/B timing of one benchmark workload: the working tree against a git ref.

    python3 tools/ab_inprocess.py --workload asian-cv-digital --ref HEAD --pairs 60
    python3 tools/ab_inprocess.py --workload asian-cv-digital --ref HEAD --pairs 60 --fresh-setup

Both trees run in one process.  The ref is unpacked with ``git archive``
into a temporary directory; each tree's ``src/qmcube`` and
``benchmark/workloads.py`` are imported once, and ``sys.modules`` is
switched to a tree's own modules around everything that tree runs, so
lazy imports inside the library resolve to the right tree.  After one
warm-up call each, the trees' calls alternate in pairs, the order flipping
every pair.  The output gives each tree's median call time and
interquartile range, the median over pairs of the working tree's time
divided by the ref's, and the share of pairs the working tree won.  Every
call's result is compared with the other tree's bit for bit: the CSV row,
each entry of ``estimate.err`` and every field of each violation report.
The first field that differs is reported and makes the exit status 1.

By default each tree's set-up is built once and every call reuses it, so
work that a change moves out of set-up and into the first call would be
charged to no call.  ``--fresh-setup`` builds a new set-up before every
timed call and reports the set-up times and the call times separately.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _owned(name: str) -> bool:
    return name in ("qmcube", "workloads") or name.startswith("qmcube.")


class Tree:
    """One checkout's library and workloads, imported under its own module names."""

    def __init__(self, label: str, root: Path):
        self.label = label
        self.modules: dict = {}
        with self.active():
            sys.path[:0] = [str(root / "src"), str(root / "benchmark")]
            try:
                import workloads
            finally:
                del sys.path[:2]
        self.workloads = workloads.WORKLOADS
        where = Path(self.modules["qmcube"].__file__).resolve().parent
        if where != (root / "src" / "qmcube").resolve():
            raise SystemExit(f"{label}: imported qmcube from {where}")

    @contextmanager
    def active(self):
        """Give this tree's modules the shared names while the block runs."""
        for name in [name for name in sys.modules if _owned(name)]:
            del sys.modules[name]
        sys.modules.update(self.modules)
        try:
            yield
        finally:
            self.modules = {name: mod for name, mod in sys.modules.items() if _owned(name)}
            for name in self.modules:
                del sys.modules[name]

    def setup(self, workload: str, seed: int):
        """(wall seconds, solve) of one set-up."""
        with self.active():
            start = perf_counter()
            solve = self.workloads[workload].setup(seed, lambda fn: fn)
            wall = perf_counter() - start
        return wall, solve

    def call(self, solve):
        """(wall seconds, ``fields`` of the result) of one call."""
        with self.active():
            start = perf_counter()
            result = solve()
            wall = perf_counter() - start
        return wall, fields(result)


def fields(result) -> list[tuple[str, str]]:
    """(name, value) pairs of a result that must agree bit for bit across trees.

    Values are plain strings, since each tree has its own classes: repr
    of a Python float round-trips its bits, and the violation count comes
    before the reports so that lists of two lengths differ there first."""
    out = [("row", ",".join(result.csv_row(include_wall_time=False)))]
    out += [(f"err[{i}]", repr(e)) for i, e in enumerate(result.estimate.err.tolist())]
    out.append(("violations", str(len(result.cone_violations))))
    for i, report in enumerate(result.cone_violations):
        out += [(f"violations[{i}].{name}", repr(value.item() if hasattr(value, "item") else value))
                for name, value in dataclasses.asdict(report).items()]
    return out


def first_difference(a: list[tuple[str, str]], b: list[tuple[str, str]]) -> str | None:
    """The first differing pair of two ``fields`` lists, described, or None if they agree."""
    for x, y in zip(a, b):
        if x != y:
            return f"{x[0]}={x[1]} against {y[0]}={y[1]}"
    return None if len(a) == len(b) else f"{len(a)} fields against {len(b)}"


def archive(ref: str, into: Path) -> Path:
    """Unpack ``git archive ref`` of this repository into ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into


def iqr(samples: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def report(what: str, ref: str, trees, walls: list[list[float]]) -> None:
    """Each tree's median and IQR of ``walls``, and the paired work/ref ratio."""
    for tree, w in zip(trees, walls):
        spread = f" iqr={1e3 * iqr(w):.3f} ms" if len(w) > 1 else ""
        print(f"{tree.label} {what}: median={1e3 * statistics.median(w):.3f} ms{spread}")
    ratios = [a / b for a, b in zip(*walls)]
    won = sum(r < 1.0 for r in ratios) / len(ratios)
    print(f"{what}: paired median ratio work/{ref} = {statistics.median(ratios):.4f}; "
          f"work faster in {won:.0%} of pairs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--ref", default="HEAD")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--fresh-setup", action="store_true",
                        help="build a new set-up before every timed call and time both")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sys.path.insert(0, str(ROOT / "benchmark"))
    import run

    run.pin_threads()  # before the trees import numpy

    with tempfile.TemporaryDirectory() as tmp:
        trees = [Tree("work", ROOT), Tree(args.ref, archive(args.ref, Path(tmp)))]
        for tree in trees:
            if args.workload not in tree.workloads:
                raise SystemExit(f"{tree.label}: unknown workload {args.workload!r}")
        solves = [tree.setup(args.workload, args.seed)[1] for tree in trees]
        results = [tree.call(solve)[1] for tree, solve in zip(trees, solves)]  # warm-up
        differ = first_difference(*results)
        setups: list[list[float]] = [[], []]
        walls: list[list[float]] = [[], []]
        for k in range(args.pairs):
            for i in ((0, 1) if k % 2 == 0 else (1, 0)):
                if args.fresh_setup:
                    setup_wall, solves[i] = trees[i].setup(args.workload, args.seed)
                    setups[i].append(setup_wall)
                wall, result = trees[i].call(solves[i])
                walls[i].append(wall)
                changed = first_difference(result, results[i])
                if changed:
                    differ = differ or f"{trees[i].label} changed between calls"
                    print(f"# {trees[i].label}: pair {k} gave another result: {changed}")

    mode = " fresh-setup" if args.fresh_setup else ""
    print(f"# workload={args.workload} seed={args.seed} pairs={args.pairs}{mode}")
    if args.fresh_setup:
        report("set-up", args.ref, trees, setups)
    report("call", args.ref, trees, walls)
    if differ:
        print(f"# RESULTS DIFFER (work against {args.ref}): {differ}")
        return 1
    print(f"# results match in {len(results[0])} fields: {results[0][0][1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
