"""End-to-end and per-layer benchmark of the korth CLI.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout; korth is imported from its ``src/``.  With
``--trace 0`` the workload's invocation list runs again and again, one
``python -m korth.cli`` subprocess at a time (a closed loop with one client),
for about ``--seconds``; every output goes through the oracle.  Times are
reported in seconds and, for the gated ``wall_ref``, in units of a fixed
pure-Python reference loop timed before each invocation, which cancels most
of the drift in the speed a shared machine gives this process.  With
``--trace 1`` the same list runs in-process through ``korth.cli.main``, traced,
untraced and traced again, for per-layer metrics.  The last line of standard
output is one JSON object with the result.  ``--selftest`` runs tiny versions
of every workload and shows that the oracle rejects corrupted outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark's directory free of caches

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")
SETUP_REPEATS = 5
REFERENCE_LOOP = 400_000  # about 45 ms on a 2.1 GHz core
GROUPS = ("verify_gate", "verify_cphase", "standard_form", "check_orth",
          "find_gates", "distance", "search_orbit", "search_full")
IMPORT_PROBE = "import korth, korth.cli; print(korth.__file__)"


ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def spawn(args: list[str], work: Path) -> tuple[int, str, str, float, float]:
    """Run the interpreter with ``args``; exit code, stdout, stderr, wall
    seconds and the child's own peak RSS in MB."""
    out, err = work / "stdout.txt", work / "stderr.txt"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], ENV, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    seconds = time.perf_counter() - t0
    return (os.waitstatus_to_exitcode(status), out.read_text(), err.read_text(),
            seconds, usage.ru_maxrss / 1024)


def read_report(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        return None


@dataclass
class Prepared:
    """A workload's generated inputs and what setting them up cost."""

    work: Path
    constructs: tuple[int, ...]
    invocations: list[workloads.Invocation]
    setup_s: list[float]
    import_s: list[float]
    provenance: dict
    problems: list[str]


def prepare(name: str, seed: int, tiny: bool, repeats: int) -> Prepared:
    """Run the construct subprocesses and a cold import ``repeats`` times,
    check the constructed codes, then write the seeded input files."""
    work = WORK / ("selftest" if tiny else "run") / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ms = workloads.CONSTRUCTS[name][tiny]
    problems = []
    status, out, err, _, _ = spawn(["-c", IMPORT_PROBE], work)  # writes bytecode once
    if status or not Path(out.strip()).resolve().is_relative_to(SRC):
        raise SystemExit(f"korth does not import from {SRC}: {err or out}")
    setup_s, import_s = [], []
    for _ in range(repeats):
        total = 0.0
        for m in ms:
            status, _, err, seconds, _ = spawn(
                ["-m", "korth.cli", *workloads.construct_argv(work, m)], work)
            total += seconds
            if status or "Traceback" in err:
                problems.append(f"construct --m {m}: exit {status} {err.strip()[-200:]}")
        _, _, _, seconds, _ = spawn(["-c", IMPORT_PROBE], work)
        import_s.append(seconds)
        setup_s.append(total + seconds)
    codes = {}
    for m in ms:
        codes[m], bad = workloads.load_construct(work, m)
        problems += [f"construct --m {m}: {p}" for p in bad]
    inputs = workloads.Inputs(work, seed, codes)
    invocations = workloads.LISTS[name](inputs, tiny)
    return Prepared(work, ms, invocations, setup_s, import_s,
                    workloads.provenance(name, inputs, tiny), problems)


@dataclass
class Tally:
    """Attempted and failed operations, with the oracle's complaints."""

    attempted: int = 0
    failed: int = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)


def reference_seconds() -> float:
    """Time a fixed pure-Python loop in this process.  The machine is shared
    and its speed drifts by tens of percent within a minute; timed next to
    each invocation, this loop measures that speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i & 1023
    return time.perf_counter() - t0


def end_to_end(prep: Prepared, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Closed loop over the invocation list, pass after pass, for about
    ``seconds``.  Each invocation's time is its median over the passes, raw
    and divided by the mean reference-loop time of its pass; wall and
    per-command times are sums of those medians over the fixed list."""
    raw: list[list[float]] = [[] for _ in prep.invocations]
    scaled: list[list[float]] = [[] for _ in prep.invocations]
    durations: list[float] = []
    peak_rss = 0.0
    start = time.monotonic()
    while True:
        t = time.monotonic()
        refs, secs_list = [], []
        for inv in prep.invocations:
            refs.append(reference_seconds())
            Path(inv.out).unlink(missing_ok=True)
            status, out, err, secs, rss = spawn(["-m", "korth.cli", *inv.argv], prep.work)
            outcome = oracle.Outcome(status, out, err, read_report(inv.out))
            tally.record(" ".join(inv.argv), inv.check(outcome))
            secs_list.append(secs)
            peak_rss = max(peak_rss, rss)
        ref = statistics.fmean(refs)
        for samples, ref_samples, secs in zip(raw, scaled, secs_list):
            samples.append(secs)
            ref_samples.append(secs / ref)
        durations.append(time.monotonic() - t)
        # Stop where the run ends closest to ``seconds``.
        if time.monotonic() - start + statistics.median(durations) / 2 > seconds:
            break
    sums = {g: [0.0, 0.0, 0] for g in GROUPS}  # seconds, reference units, invocations
    for inv, samples, ref_samples in zip(prep.invocations, raw, scaled):
        row = sums[inv.group]
        row[0] += statistics.median(samples)
        row[1] += statistics.median(ref_samples)
        row[2] += 1
    metrics = {
        "wall_ref": (sum(row[1] for row in sums.values()), "ref"),
        "setup_s": (statistics.median(prep.setup_s), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    # check-orth is mostly interpreter start-up; it counts toward the wall only.
    also = [("wall_s", sum(row[0] for row in sums.values()), "s", ""),
            ("error_rate", tally.failed / tally.attempted, "ratio", "")]
    also += [(f"{g}_s", s, "s", f" ({n} invocations, {ref:.4f} ref)")
             for g, (s, ref, n) in sums.items() if n and g != "check_orth"]
    return metrics, {"passes": len(durations), "also": also}


def call_main(argv: list[str]) -> tuple[int, str, str, float]:
    """korth.cli.main in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    main = sys.modules["korth.cli"].main  # the traced wrapper when installed
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except Exception:
            traceback.print_exc()
            status = 1
    return status, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def in_process_pass(prep: Prepared, tally: Tally) -> float:
    """Constructs plus the invocation list through korth.cli.main; returns
    the seconds spent inside main."""
    total = 0.0
    for m in prep.constructs:
        argv = workloads.construct_argv(prep.work, m)
        status, _, err, secs = call_main(argv)
        total += secs
        tally.record(" ".join(argv), [f"exit {status} {err[-200:]}"] if status else [])
    for inv in prep.invocations:
        Path(inv.out).unlink(missing_ok=True)
        status, out, err, secs = call_main(inv.argv)
        total += secs
        outcome = oracle.Outcome(status, out, err, read_report(inv.out))
        tally.record(" ".join(inv.argv), inv.check(outcome))
    return total


def traced(prep: Prepared, tally: Tally) -> tuple[dict, dict, list[str]]:
    """Traced, untraced and traced in-process passes: per-layer metrics,
    module self-time shares, and any counter that did not repeat exactly."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import korth.cli  # noqa: F401

    tracer = tracing.Tracer()
    runs, records = [], []
    untraced = 0.0
    for i in (1, 2):
        # Untraced between the traced passes, so warm-up is not counted as
        # tracing saving time.
        if i == 2:
            untraced = in_process_pass(prep, tally)
        tracer.reset()
        tracer.install()
        try:
            wall = in_process_pass(prep, tally)
        finally:
            tracer.remove()
        records.append(tracer.records())
        runs.append((wall, tracer.per_function(), dict(tracer.finish_counts())))
    # Spans stay in memory until both traced passes are over.
    (prep.work / "spans.json").write_text(json.dumps(records) + "\n")
    (wall1, fn1, cnt1), (wall2, fn2, cnt2) = runs
    mismatches = [f"{name}.calls {fn1[name][0]} != {fn2[name][0]}"
                  for name in tracing.WRAPPED if fn1[name][0] != fn2[name][0]]
    mismatches += [f"{name} {cnt1[name]} != {cnt2[name]}"
                   for name in cnt1 if cnt1[name] != cnt2[name]]

    def mean(name: str, col: int) -> float:
        return (fn1[name][col] + fn2[name][col]) / 2

    def per_second(count: float, seconds: float) -> float:
        return count / seconds if seconds else 0.0

    metrics = {}
    for name in tracing.WRAPPED:
        metrics[f"{name}.calls"] = (fn1[name][0], "count")
        metrics[f"{name}.self_s"] = (mean(name, 2), "s")
    for name in tracing.COUNTERS:
        if name != "codes.qubits":
            metrics[name] = (cnt1[name], "count")
    metrics["gates.span_elements_per_s"] = (
        per_second(cnt1["gates.span_elements"], mean("gates.logical_phase_action", 1)), "1/s")
    metrics["search.hit_yield"] = (
        cnt1["search.witnesses"] / cnt1["search.hits"] if cnt1["search.hits"] else 0.0, "ratio")
    metrics["search.subsets_per_s"] = (
        per_second(cnt1["search.subsets"], mean("search.minimality_search", 1)), "1/s")
    metrics["codes.qubits_per_s"] = (
        per_second(cnt1["codes.qubits"], mean("codes.to_standard_form", 1)), "1/s")
    metrics["cli.import_s"] = (statistics.median(prep.import_s), "s")
    metrics["trace.overhead_s"] = ((wall1 + wall2) / 2 - untraced, "s")

    inside = mean("cli.main", 1)
    shares: dict[str, float] = {}
    for name in tracing.WRAPPED:
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + mean(name, 2) / inside
    info = {"in_process_s": inside, "untraced_s": untraced,
            "self_share": dict(sorted(shares.items(), key=lambda kv: -kv[1]))}
    return metrics, info, mismatches


def run(args) -> int:
    load_start = os.getloadavg()
    tally = Tally()
    prep = prepare(args.workload, args.seed, False, SETUP_REPEATS)
    for problem in prep.problems:
        tally.record("setup", [problem])
    mismatches: list[str] = []
    if args.trace:
        metrics, info, mismatches = traced(prep, tally)
        for m in mismatches:
            print(f"COUNTER MISMATCH {m}", file=sys.stderr)
    else:
        metrics, info = end_to_end(prep, args.seconds, tally)
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "why": next(w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())
                     ["workloads"] if w["name"] == args.workload),
        **prep.provenance,
    }
    (prep.work / "provenance.json").write_text(json.dumps(provenance, indent=2) + "\n")
    print("provenance " + json.dumps(provenance))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for name, value, unit, note in info.pop("also", ()):
        print(f"{name} {value} {unit}{note}")
    print("info " + json.dumps(info))
    result = {
        "correct": tally.failed == 0 and not mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def selftest() -> int:
    """Tiny workloads: every output passes, every corruption is caught, and
    the traced pass repeats its counters."""
    errors = []
    for name in workloads.LISTS:
        prep = prepare(name, 1, True, 1)
        errors += [f"{name} setup: {p}" for p in prep.problems]
        for inv in prep.invocations:
            status, out, err, _, _ = spawn(["-m", "korth.cli", *inv.argv], prep.work)
            outcome = oracle.Outcome(status, out, err, read_report(inv.out))
            label = f"{name}: {' '.join(inv.argv[:2])}"
            problems = inv.check(outcome)
            if problems:
                errors.append(f"{label}: correct output rejected: {problems}")
                continue
            for kind, bad in oracle.corruptions(inv.check, outcome):
                if not inv.check(bad):
                    errors.append(f"{label}: corrupted {kind} accepted")
        tally = Tally()
        _, info, mismatches = traced(prep, tally)
        if tally.failed or mismatches:
            errors.append(f"{name}: traced run failed {tally.failed} times, {mismatches}")
        print(f"selftest {name}: {len(prep.invocations)} invocations, "
              f"self-time share {info['self_share']}")
    for e in errors:
        print(f"SELFTEST ERROR {e}", file=sys.stderr)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.LISTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    os.chdir(ROOT)
    # Turn termination into an exception, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "korth" / "cli.py").is_file():
        print(f"error: no korth sources under {SRC}", file=sys.stderr)
        return 2
    return selftest() if args.selftest else run(args)


if __name__ == "__main__":
    sys.exit(main())
