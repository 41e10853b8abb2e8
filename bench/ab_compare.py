#!/usr/bin/env python3
"""In-process A/B of the library at a git revision against the working tree.

    python3 bench/ab_compare.py --rev HEAD~1 --p 4 --rounds 150
    python3 bench/ab_compare.py --rev HEAD --rounds 5     # A/A smoke run

Exports src/ro of the revision (A) with `git archive`, builds it and the
working tree's src/ro (B) each in its own namespace (-Dro=ro_a,
-Dro=ro_b), links both into one driver (bench/ab/) and alternates the
same calls on the same recording: simulate() under PWS and RWS at the
requested p, Engine::submit of a resident sim-pws run with its p = 1
baseline (the run-resident job of BENCHMARK.json at n and p), and the
wire codec: to_json -> jobresult_from_json -> to_json of a run, a
capacity-shared batch and a diagnose result, built once.  One
process removes the run-to-run noise that separate processes carry, so
small per-layer differences resolve.  The side linked and constructed
first reads 1-3 % slower whichever build it is, so half the rounds run in
a second driver that places B first, and the two halves are pooled.

Before timing, the driver checks that A and B give identical digests on
every layer (of the Metrics, or of the JSON bytes for the wire layer); if
they differ it names the layer and no timing is printed.  Per layer the table shows the median time of each side, the
median of the per-round ratios B/A and their interquartile range.  A
layer is "B faster" or "B slower" only when that range excludes 1.00;
an A/A run reads 1.00 within it.

Run from anywhere inside a checkout.  The build goes to build-ab/ at the
checkout's root, configured as RelWithDebInfo like the repository's own
default build.  Exits 0 after printing the table, 1 when an export or a
build fails, 3 when the digests differ.
"""
import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=1):
    print("ab_compare: " + msg, file=sys.stderr)
    sys.exit(code)


def git(*args):
    p = subprocess.run(["git", "-C", ROOT, *args], capture_output=True)
    if p.returncode != 0:
        fail("git " + " ".join(args) + " failed: " +
             p.stderr.decode(errors="replace").strip())
    return p.stdout


def export_revision(rev, out_dir):
    """src/ro of `rev` under out_dir/rev-<sha>/src; reused when present."""
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    dest = os.path.join(out_dir, "rev-" + sha)
    if not os.path.isdir(os.path.join(dest, "src", "ro")):
        tar = git("archive", "--format=tar", sha, "src/ro")
        with tarfile.open(fileobj=io.BytesIO(tar)) as t:
            t.extractall(dest, filter="data")
    return sha, os.path.join(dest, "src")


def build(build_dir, a_src, jobs):
    """The two drivers: A linked and constructed first, then B first."""
    cmake_dir = os.path.join(build_dir, "driver")
    for cmd in (["cmake", "-S", os.path.join(HERE, "ab"), "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                 "-DRO_A_SRC=" + a_src,
                 "-DRO_B_SRC=" + os.path.join(ROOT, "src")],
                ["cmake", "--build", cmake_dir, "-j", str(jobs)]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return [os.path.join(cmake_dir, d) for d in ("ab_driver", "ab_driver_ba")]


def quartiles(xs):
    """(q1, median, q3) of a non-empty sample (inclusive method)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(lines):
    """Per layer, in first-seen order: median A and B ms, and the
    quartiles of the per-round ratios B/A, from the driver's JSON lines."""
    rows = {}
    for line in lines:
        r = json.loads(line)
        if "round" not in r:
            continue
        row = rows.setdefault(r["layer"], {"a": [], "b": [], "ratio": []})
        row["a"].append(r["a_ms"])
        row["b"].append(r["b_ms"])
        row["ratio"].append(r["b_ms"] / r["a_ms"])
    out = []
    for layer, row in rows.items():
        q1, med, q3 = quartiles(row["ratio"])
        out.append({"layer": layer, "rounds": len(row["ratio"]),
                    "a_ms": statistics.median(row["a"]),
                    "b_ms": statistics.median(row["b"]),
                    "ratio": med, "q1": q1, "q3": q3,
                    "verdict": ("B faster" if q3 < 1 else
                                "B slower" if q1 > 1 else "unresolved")})
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", default="HEAD",
                    help="git revision built as side A (default HEAD)")
    ap.add_argument("--workload", default="ps")
    ap.add_argument("--n", type=int, default=1 << 13)
    ap.add_argument("--p", type=int, default=4)
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--layers", default="pws,rws,submit,wire",
                    help="comma-separated subset of pws,rws,submit,wire")
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build-ab"))
    ap.add_argument("--jobs", type=int,
                    default=max(1, min(4, os.cpu_count() or 1)))
    args = ap.parse_args()

    sha, a_src = export_revision(args.rev, args.build_dir)
    lines = []
    # Half the rounds in each driver: the side placed first reads a few
    # percent slower whichever build it is, and pooling cancels that.
    for exe, rounds in zip(build(args.build_dir, a_src, args.jobs),
                           ((args.rounds + 1) // 2, args.rounds // 2)):
        if rounds == 0:
            continue
        p = subprocess.run([exe, "--workload=" + args.workload,
                            "--n=" + str(args.n), "--p=" + str(args.p),
                            "--rounds=" + str(rounds),
                            "--layers=" + args.layers],
                           capture_output=True, text=True)
        sys.stderr.write(p.stderr)
        if p.returncode != 0:
            fail("driver exited with status %d" % p.returncode,
                 3 if p.returncode == 3 else 1)
        lines += p.stdout.splitlines()
    print("A = %s (%s), B = working tree; %s n=%d p=%d, %d rounds" %
          (args.rev, sha[:12], args.workload, args.n, args.p, args.rounds))
    print("%-8s %10s %10s %8s  %-17s %s" %
          ("layer", "A ms", "B ms", "B/A", "IQR", "verdict"))
    for r in summarize(lines):
        print("%-8s %10.3f %10.3f %8.3f  [%.3f, %.3f]    %s" %
              (r["layer"], r["a_ms"], r["b_ms"], r["ratio"], r["q1"],
               r["q3"], r["verdict"]))


if __name__ == "__main__":
    main()
