"""Alternating A/B benchmark pairs: a base revision against the working tree.

    python3 scripts/ab_pairs.py --base REV --workload W --seed N --pairs 10

Run from anywhere inside the repository. The base revision is exported with
``git archive`` and the working tree (every file ``git ls-files`` lists,
tracked or untracked but not ignored, as it is on disk) is copied, each into
its own temporary directory, so both sides run from a fresh checkout. Each
pair runs ``perfbench/run.py --workload W --seed N --seconds 20`` once on
each side (a speed claim is measured at that run length); the side that
runs first alternates from pair to pair, and every ``__pycache__`` of the
side about to run is deleted first, so no run reads bytecode that an
earlier run compiled.

For each end-to-end metric that BENCHMARK.json names, the summary prints
both sides' median and quartiles, and how many pairs the change won. A
speed claim holds when the change wins at least nine of ten pairs and its
median beats the base median by more than the base's interquartile range,
and no more tasks fail on the change side than on the base side. The
no-regression verdict reads the metric's `bound` in BENCHMARK.json as a
fraction of the base median, as the benchmark's spreads are (perfbench's
baseline.json divides q3 - q1 by the median): it is `WORSE` when the change
median is worse than the base median by more than bound * base median;
else `unresolved` when the base's (q3 - q1) / median is wider than the
bound, so that no shift within the bound can be told apart, unless every
change run beats every base run; else `ok`. Stdlib only.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def _git(root, *args):
    return subprocess.run(
        ["git", "-C", root, *args], check=True, capture_output=True
    ).stdout


def export_base(root, rev, dest):
    """Write the tree of `rev` into the empty directory `dest`."""
    archive = _git(root, "archive", "--format=tar", rev)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def export_worktree(root, dest):
    """Copy the working tree's listed files into `dest`."""
    listed = _git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in filter(None, listed.decode().split("\0")):
        src = os.path.join(root, rel)
        if not os.path.isfile(src):  # deleted in the working tree
            continue
        out = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(out), exist_ok=True)
        shutil.copy2(src, out)


def drop_pycache(tree):
    for parent, dirs, _files in os.walk(tree):
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(parent, "__pycache__"))
            dirs.remove("__pycache__")


# Run length of every benchmark run: a speed claim is measured at 20 s.
SECONDS = 20


def run_side(tree, workload, seed):
    """One benchmark run in `tree`; returns its result object (the last
    line of perfbench's standard output)."""
    drop_pycache(tree)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("benchmark in %s printed nothing:\n%s" % (tree, proc.stderr))
    return json.loads(lines[-1])


def _spread(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def summarize(pairs, metrics, failed=(0, 0)):
    """Per-metric rows from `pairs`, a list of (base, change) dicts of
    metric values, for `metrics`, a list of (name, better) or (name, better,
    bound) with better "lower" or "higher"; `failed` is (base, change), the
    number of failed tasks summed over each side's runs.

    Each row holds both sides' (median, q1, q3), the number of pairs the
    change won (strictly better), `holds`: at least nine tenths of the
    pairs won, the median better by more than the base's q3 - q1, and no
    more failed tasks on the change side than on the base side; and
    `worse`: the change median worse than the base median by more than
    the bound, a fraction of the (positive) base median (False when no
    bound is given); and `verdict`: "WORSE" when worse, else "unresolved"
    when the base's (q3 - q1) / median exceeds the bound and not every
    change run beats every base run, else "ok".
    """
    rows = []
    for name, better, *bound in metrics:
        base = [b[name] for b, _c in pairs]
        change = [c[name] for _b, c in pairs]
        sign = 1 if better == "lower" else -1
        wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
        b_med, b_q1, b_q3 = _spread(base)
        c_med, c_q1, c_q3 = _spread(change)
        holds = (
            wins >= math.ceil(0.9 * len(pairs))
            and sign * (b_med - c_med) > b_q3 - b_q1
            and failed[1] <= failed[0]
        )
        worse = bool(bound) and sign * (c_med - b_med) / b_med > bound[0]
        if worse:
            verdict = "WORSE"
        elif bound and (b_q3 - b_q1) / b_med > bound[0] and not all(
            sign * (b - c) > 0 for b in base for c in change
        ):
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append({
            "metric": name,
            "base": (b_med, b_q1, b_q3),
            "change": (c_med, c_q1, c_q3),
            "wins": wins,
            "pairs": len(pairs),
            "holds": holds,
            "worse": worse,
            "verdict": verdict,
        })
    return rows


def format_rows(rows):
    out = ["%-12s %32s %32s %7s %-6s %s" % ("metric", "base median [q1, q3]",
                                             "change median [q1, q3]", "wins", "claim",
                                             "bound")]
    for r in rows:
        out.append("%-12s %32s %32s %7s %-6s %s" % (
            r["metric"],
            "%.4g [%.4g, %.4g]" % r["base"],
            "%.4g [%.4g, %.4g]" % r["change"],
            "%d/%d" % (r["wins"], r["pairs"]),
            "holds" if r["holds"] else "-",
            r["verdict"],
        ))
    return "\n".join(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    root = _git(os.getcwd(), "rev-parse", "--show-toplevel").decode().strip()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = [(m["name"], m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]]
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        trees = {"base": os.path.join(tmp, "base"), "change": os.path.join(tmp, "change")}
        for tree in trees.values():
            os.mkdir(tree)
        export_base(root, args.base, trees["base"])
        export_worktree(root, trees["change"])
        pairs, failed = [], {"base": 0, "change": 0}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            result = {}
            for side in order:
                res = run_side(trees[side], args.workload, args.seed)
                failed[side] += res["failed"]
                result[side] = {k: v["value"] for k, v in res["metrics"].items()}
                print("pair %d %-6s %s" % (i + 1, side, " ".join(
                    "%s=%.4g" % (k, result[side][k]) for k, *_rest in metrics)), flush=True)
            pairs.append((result["base"], result["change"]))
    print(format_rows(summarize(pairs, metrics, (failed["base"], failed["change"]))))
    if failed["base"] or failed["change"]:
        print("failed tasks: base %d, change %d" % (failed["base"], failed["change"]))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
