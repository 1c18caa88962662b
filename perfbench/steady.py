#!/usr/bin/env python3
"""Steadiness evidence for the repo benchmark.

Run from the root of a checkout:

    python3 perfbench/steady.py [--out FILE]

Runs every workload of BENCHMARK.json in 2 sets of 10 timed runs of
run_seconds each, each run with its own seed (set k uses seeds
100*k+1 .. 100*k+10), interleaving the workloads so slow drift of the
host spreads over all of them.  For each (workload, end-to-end metric)
pair it prints each set's median and quartiles (statistics.quantiles,
n=4), the spread (q3 - q1) / median, the drift of set 2's median against
set 1's in either direction, and the metric's bound from BENCHMARK.json.
A pair passes when the drift and every set's spread are within the
bound; it is steady when every spread is below a third of the bound.
The spread of setup_s is printed but not judged: a run sets up only a
handful of times, so its setup_s median is guarded by the drift between
the two sets (see NOTES.md).  op_ms_p90 is shown where every run reports it; it has no
bound.  Each set's host-noise diagnostics (CPU steal share, involuntary
context switches) are summarised below the table.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SETS = 2
RUNS = 10


def spread(q1, q2, q3):
    return (q3 - q1) / q2 if q2 else 0.0


def drift(first, last, better):
    """Relative change of the median, positive in the worse direction."""
    a = statistics.median(first)
    b = statistics.median(last)
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def run_once(workload, seed, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=3 * seconds + 900, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    noise = {}
    for line in lines[:-1]:
        fields = line.split()
        if fields[:2] == ["metric", "op_ms_p90"]:
            values["op_ms_p90"] = float(fields[2])
        elif fields and fields[0] == "noise":
            noise = dict(f.split("=", 1) for f in fields[1:])
    return result["correct"], values, noise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the report to this file")
    args = parser.parse_args()
    bench = json.loads((pathlib.Path.cwd() / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    # samples[set][workload][metric] -> values; noise[set] -> [(steal, nivcsw)]
    samples = [{w: {} for w in workloads} for _ in range(SETS)]
    noise = [[] for _ in range(SETS)]
    incorrect = []
    for s in range(SETS):
        for i in range(RUNS):
            seed = 100 * (s + 1) + i + 1
            for w in workloads:
                correct, values, run_noise = run_once(w, seed, seconds)
                if not correct:
                    incorrect.append(f"{w} seed {seed}")
                for name, value in values.items():
                    samples[s][w].setdefault(name, []).append(value)
                noise[s].append((float(run_noise.get("steal_share", 0)),
                                 int(run_noise.get("nivcsw", 0))))
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
                      file=sys.stderr, flush=True)

    out = []
    out.append(f"perfbench steadiness: {SETS} sets x {RUNS} runs x "
               f"{seconds} s per workload")
    header = f"{'workload':<15} {'metric':<14} {'bound':>6}"
    for s in range(SETS):
        header += f" | set{s + 1} median [q1, q3] spread"
    header += " | drift  verdict"
    out.append(header)
    failing = []
    for w in workloads:
        rows = metrics + [{"name": "op_ms_p90", "better": "lower",
                           "bound": None}]
        for m in rows:
            per_set = [samples[s][w].get(m["name"], []) for s in range(SETS)]
            if any(len(v) != RUNS for v in per_set):
                continue
            bound = m["bound"]
            line = f"{w:<15} {m['name']:<14} " + (
                f"{bound:>6.2f}" if bound is not None else f"{'-':>6}")
            spreads = []
            for values in per_set:
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spreads.append(spread(q1, q2, q3))
                line += (f" | {q2:.6g} [{q1:.6g}, {q3:.6g}] "
                         f"{100 * spreads[-1]:.1f}%")
            d = drift(per_set[0], per_set[1], m["better"])
            line += f" | {100 * d:+.1f}%"
            if bound is None:
                verdict = "no bound"
            else:
                ok = abs(d) <= bound and (m["name"] == "setup_s" or
                                          all(x <= bound for x in spreads))
                steady = all(x < bound / 3 for x in spreads)
                verdict = ("steady" if ok and steady else
                           "within bound" if ok else "FAILS")
                if not ok:
                    failing.append(f"{w}/{m['name']}")
            out.append(line + f"  {verdict}")
    out.append("")
    for s in range(SETS):
        steal = [n[0] for n in noise[s]]
        switches = [n[1] for n in noise[s]]
        out.append(f"set {s + 1} noise: steal share median "
                   f"{statistics.median(steal):.4f} max {max(steal):.4f}; "
                   f"involuntary switches median "
                   f"{statistics.median(switches)} max {max(switches)}")
    out.append("incorrect runs: " + (", ".join(incorrect) or "none"))
    out.append("pairs outside their bound: " + (", ".join(failing) or "none"))
    report = "\n".join(out) + "\n"
    print(report, end="")
    if args.out:
        pathlib.Path(args.out).write_text(report)
    sys.exit(1 if failing or incorrect else 0)


if __name__ == "__main__":
    main()
