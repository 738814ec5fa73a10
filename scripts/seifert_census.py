"""Certify every space of two fixed Seifert censuses, with a time limit each.

    python3 scripts/seifert_census.py > census.tsv

Census A (716 spaces) has exceptional fibers (1, alpha), alpha in
{2, 3, 4, 5, 6, 7, 9, 11, 13}:

- genus 0 with four such fibers (495);
- an RP^2 base (genus -1) with three (165);
- genus 0 with five fibers of alpha <= 5 (56).

Census B (7173 spaces) has every fiber (beta, alpha) with alpha <= 7 and beta
coprime to alpha in 1..alpha-1:

- genus 0 with three or four fibers (5814);
- genus 0 with n = 1 or 2 boundary tori and 4 - n fibers (1122);
- genus 1, 2, -2 and -3 with two fibers among (1,2), (1,3), (2,3), (1,4),
  (3,4), (1,5) (84);
- an RP^2 base with one boundary torus and two fibers (153).

Fibers are taken as multisets, in the order itertools.combinations_with_replacement
gives. Each space goes to one of two long-lived worker processes, which runs
`seifert.certify` on it; at most two workers are alive at any time. A worker
that has not answered LIMIT_S = 8 seconds after it was handed a space is
killed, the space is recorded as `timeout`, and a fresh worker takes its
place.

Standard output gets one tab-separated line per space, in census order:
census, genus, boundary count, fibers, status, seconds, digest. The status is
the certificate kind, the classification of a space without a certificate
(`no_essential_torus`), `BuildError`, or `timeout`; the digest is the sha256 of
the canonical JSON (sorted keys, no spaces) of `certify(data).as_dict()`, or
`-` when there is none. Two runs give the same digest for a space exactly
when their results are byte-identical. A summary table per census and status
(count, median, p90 and max seconds) goes to standard error, then one line
`census sha256 <hex>`: the sha256 of every output line without its seconds
column (census, genus, boundary count, fibers, status and digest, tab-joined,
one newline each), so two runs print the same line exactly when every
space has the same status and digest. Stdlib only; the package is imported
from the `src/` next to this script.
"""

import hashlib
import itertools
import json
import math
import multiprocessing
import os
import statistics
import sys
import time
from multiprocessing.connection import wait

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from skeinmod.seifert import BuildError, SeifertData, TorsionCertificate, certify  # noqa: E402

WORKERS = 2
LIMIT_S = 8.0

_ALPHAS_A = (2, 3, 4, 5, 6, 7, 9, 11, 13)
_FIBERS_B = tuple((b, a) for a in range(2, 8) for b in range(1, a) if math.gcd(a, b) == 1)
_SMALL_B = ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5))


def _multisets(fibers, k):
    return itertools.combinations_with_replacement(fibers, k)


def census_a():
    """The spaces of census A as (genus, boundary, fibers) triples."""
    ones = [(1, a) for a in _ALPHAS_A]
    out = [(0, 0, f) for f in _multisets(ones, 4)]
    out += [(-1, 0, f) for f in _multisets(ones, 3)]
    out += [(0, 0, f) for f in _multisets([(1, a) for a in _ALPHAS_A if a <= 5], 5)]
    return out


def census_b():
    """The spaces of census B as (genus, boundary, fibers) triples."""
    out = [(0, 0, f) for k in (3, 4) for f in _multisets(_FIBERS_B, k)]
    out += [(0, n, f) for n in (1, 2) for f in _multisets(_FIBERS_B, 4 - n)]
    out += [(g, 0, f) for g in (1, 2, -2, -3) for f in _multisets(_SMALL_B, 2)]
    out += [(-1, 1, f) for f in _multisets(_FIBERS_B, 2)]
    return out


def certify_one(g, n, fibers):
    """(status, seconds, digest) of one certify call, in this process."""
    start = time.perf_counter()
    try:
        result = certify(SeifertData(g, n, fibers))
    except BuildError:
        return "BuildError", time.perf_counter() - start, "-"
    seconds = time.perf_counter() - start
    out = result.as_dict()
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    status = result.kind if isinstance(result, TorsionCertificate) else out["classification"]
    return status, seconds, hashlib.sha256(text.encode()).hexdigest()


def _worker(conn):
    while True:
        job = conn.recv()
        if job is None:
            return
        index, space = job
        conn.send((index, certify_one(*space)))


class _Worker:
    def __init__(self, ctx):
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker, args=(child,), daemon=True)
        self.proc.start()
        child.close()
        self.job = None  # (index, started) while busy

    def give(self, index, space):
        self.conn.send((index, space))
        self.job = (index, time.monotonic())

    def stop(self, kill=False):
        if kill:
            self.proc.kill()
        else:
            self.conn.send(None)
        self.proc.join()
        self.conn.close()


def run(spaces, limit=LIMIT_S):
    """Yield (index, (status, seconds, digest)) for every space, in input
    order, certifying on at most WORKERS processes at a time."""
    ctx = multiprocessing.get_context("spawn")
    todo = list(enumerate(spaces))[::-1]
    workers = [_Worker(ctx) for _ in range(min(WORKERS, len(todo)))]
    done, emitted = {}, 0
    try:
        while emitted < len(spaces):
            for w in workers:
                if w.job is None and todo:
                    w.give(*todo.pop())
            busy = [w for w in workers if w.job is not None]
            now = time.monotonic()
            deadline = min(w.job[1] for w in busy) + limit
            ready = wait([w.conn for w in busy], timeout=max(0.0, deadline - now))
            for i, w in enumerate(workers):
                if w.job is None:
                    continue
                if w.conn in ready:
                    index, result = w.conn.recv()
                    done[index] = result
                    w.job = None
                elif time.monotonic() - w.job[1] > limit:
                    done[w.job[0]] = ("timeout", limit, "-")
                    w.stop(kill=True)
                    workers[i] = _Worker(ctx)
            while emitted in done:
                yield emitted, done.pop(emitted)
                emitted += 1
    finally:
        for w in workers:
            w.stop(kill=w.job is not None)


def format_fibers(fibers):
    return ",".join(f"{b}/{a}" for b, a in fibers) or "-"


def summary(rows):
    """Markdown table of (census, status) -> count, median, p90, max seconds."""
    groups = {}
    for census, status, seconds in rows:
        groups.setdefault((census, status), []).append(seconds)
    lines = ["| census | status | spaces | median s | p90 s | max s |", "|---|---|---|---|---|---|"]
    for (census, status), secs in sorted(groups.items()):
        secs.sort()
        p90 = secs[math.ceil(0.9 * len(secs)) - 1]
        lines.append(
            f"| {census} | {status} | {len(secs)} | {statistics.median(secs):.3f} "
            f"| {p90:.3f} | {secs[-1]:.3f} |"
        )
    return "\n".join(lines)


def main():
    spaces = [("A", s) for s in census_a()] + [("B", s) for s in census_b()]
    rows = []
    census_hash = hashlib.sha256()
    start = time.monotonic()
    for index, (status, seconds, digest) in run([s for _, s in spaces]):
        name, (g, n, fibers) = spaces[index]
        fields = (name, g, n, format_fibers(fibers), status, f"{seconds:.3f}", digest)
        print("\t".join(map(str, fields)), flush=True)
        census_hash.update(("\t".join(map(str, fields[:5] + fields[6:])) + "\n").encode())
        rows.append((name, status, seconds))
    print(summary(rows), file=sys.stderr)
    print(f"census sha256 {census_hash.hexdigest()}", file=sys.stderr)
    print(f"{len(rows)} spaces, {time.monotonic() - start:.0f} s wall", file=sys.stderr)


if __name__ == "__main__":
    main()
