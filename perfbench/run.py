"""hfsac benchmark: one workload, one run.

    python3 perfbench/run.py --workload image-256 --seed 1 --seconds 35 --trace 0

--trace 0 times the `hfsac` CLI end to end: a closed loop of one child
process at a time, each timed by its CPU seconds scaled to a reference host
speed (see probe.py), with its peak RSS from os.wait4, and each output
checked against the digests in pins.json.  --trace 1 runs the pipeline
in-process under a span tracer and reports per-layer metrics.
The last line of stdout is the JSON result; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from probe import make_table, spin
from workloads import (
    KEY_HEX, SETUP_INPUT, WORKLOADS, Workload,
    container_bit_lengths, load_pins, make_inputs, pinned, sha256,
)

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
OPS = ("encode", "decode", "analyze")
ROUND = ("setup", *OPS)  # "setup" is a 1-byte encode


@dataclass(frozen=True)
class Sample:
    op: str
    ok: bool
    wall_s: float
    cpu_s: float
    probe_rate: float
    scaled_s: float
    rss_mib: float


def machine_info() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                None,
            )
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = version(pkg)
        except PackageNotFoundError:
            versions[pkg] = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "src_sha256": src_digest(),
    }


def src_digest() -> str:
    """Identifies the code under test where no git commit is available."""
    parts = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        parts.append(f"{path.relative_to(ROOT)}:{sha256(path.read_bytes())}")
    return sha256("\n".join(parts).encode())


# Probe loops per CPU second, sharing the CPU with an op, in the calmest
# phases seen on the 2-CPU Xeon VM the bounds were set on.  Scaling by it
# makes a corrected time read about as the op's CPU seconds in such a phase.
PROBE_REF_RATE = 6.5e6
# weight 110 against the op's 1024: the probe takes about a tenth of the CPU
PROBE_NICE = 10


@dataclass(frozen=True)
class Timing:
    code: int
    wall_s: float
    cpu_s: float  # user + system time of the child
    probe_rate: float  # probe loops per CPU second while the child ran
    rss_mib: float
    stdout: bytes

    @property
    def scaled_s(self) -> float:
        """CPU seconds corrected to the reference host speed."""
        return self.cpu_s * self.probe_rate / PROBE_REF_RATE


class Cli:
    """Runs `python -m hfsac.cli` children one at a time in a work directory.

    Each child is pinned to the CPU where the probe body ran fastest just
    before, with a probe process at low priority on the same CPU
    (probe.py).  The probe's speed during the child measures how fast the
    shared host ran it.
    """

    def __init__(self, work: Path):
        self.work = work
        self.cpus = sorted(os.sched_getaffinity(0))
        self.table = make_table()
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            # fixed str hashing: dict and set layout repeats from run to run
            PYTHONHASHSEED="0",
        )
        # time imports from cached bytecode, as an installed package runs
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def pick_cpu(self) -> None:
        """Pins this process, and so its next children, to the fastest CPU.

        Each virtual CPU of a shared host has slow phases of its own; an op
        run in a calmer one needs a smaller correction.
        """
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            spin(self.table)  # the first round after a move runs on cold caches
            t0 = time.perf_counter()
            for _ in range(40):
                spin(self.table)
            speed[cpu] = time.perf_counter() - t0
        os.sched_setaffinity(0, {min(speed, key=speed.get)})

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)

    def run(self, *args: str) -> Timing:
        self.pick_cpu()
        probe = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py"))],
            stdout=subprocess.PIPE, text=True,
        )
        proc = None
        try:
            os.setpriority(os.PRIO_PROCESS, probe.pid, PROBE_NICE)
            if probe.stdout.readline().strip() != "ready":
                raise RuntimeError("probe did not start")
            out = self.work / "stdout"
            with open(out, "wb") as fo, open(self.work / "stderr", "wb") as fe:
                t0 = time.perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, *args], stdout=fo, stderr=fe,
                    env=self.env, cwd=self.work,
                )
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            probe.send_signal(signal.SIGUSR1)
            loops, probe_cpu = probe.stdout.readline().split()
            probe.wait()
        finally:
            for child in (proc, probe):
                if child is not None and child.poll() is None:
                    child.kill()
                    child.wait()
            probe.stdout.close()
        return Timing(
            proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            int(loops) / float(probe_cpu), usage.ru_maxrss / 1024, out.read_bytes(),
        )


def cli_run(w: Workload, seed: int, seconds: float, pins: dict):
    """Timed CLI ops; returns (samples, metrics, per-op scaled medians)."""
    inp = make_inputs(w, seed)
    expect = pinned(pins, w, seed)
    setup_sha = pins["workloads"][w.name]["setup_sha256"]
    work = OUT / "work" / f"{w.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plain, cont, back = work / "plain", work / "plain.hfsa", work / "back"
    plain.write_bytes(inp.plain)
    (work / "analyze.pgm").write_bytes(inp.analyze_pgm)
    (work / "one").write_bytes(SETUP_INPUT)
    cli = Cli(work)
    key = ["--key", KEY_HEX]
    pgm_args = ["--format", "pgm"] if inp.is_pgm else []
    shape = ["--width", str(inp.width), "--height", str(inp.height)] if inp.is_pgm else []
    ratios: list[float] = []

    def setup():
        t = cli.run(
            "-m", "hfsac.cli", "encode", "--in", "one", "--out", "one.hfsa",
            *key, *w.cli_params(),
        )
        return t.code == 0 and sha256((work / "one.hfsa").read_bytes()) == setup_sha, t

    def encode():
        cont.unlink(missing_ok=True)
        t = cli.run(
            "-m", "hfsac.cli", "encode", "--in", plain.name, "--out", cont.name,
            *key, *w.cli_params(), *pgm_args,
        )
        ok = t.code == 0 and sha256(cont.read_bytes()) == expect["encode_sha256"]
        if ok:
            n_plain, n_cipher = container_bit_lengths(cont.read_bytes())
            ratios.append(n_cipher / n_plain)
        return ok, t

    def decode():
        back.unlink(missing_ok=True)
        t = cli.run(
            "-m", "hfsac.cli", "decode", "--in", cont.name, "--out", back.name,
            *key, *pgm_args, *shape,
        )
        return t.code == 0 and back.read_bytes() == inp.plain, t

    def analyze():
        t = cli.run(
            "-m", "hfsac.cli", "analyze", "--plain", "analyze.pgm",
            *key, *w.cli_params(),
        )
        return t.code == 0 and sha256(t.stdout) == expect["analyze_sha256"], t

    run_op = {"setup": setup, "encode": encode, "decode": decode, "analyze": analyze}
    # untimed: compiles bytecode and warms the file cache
    cli.run("-c", "import hfsac.cli")

    samples: list[Sample] = []
    start = time.perf_counter()

    def do(op: str) -> None:
        ok, t = run_op[op]()
        samples.append(
            Sample(op, ok, t.wall_s, t.cpu_s, t.probe_rate, t.scaled_s, t.rss_mib)
        )

    # Ops interleave, so a stall of the host touches every metric a little
    # instead of one metric a lot.  Whole rounds fill the time window.
    try:
        while True:
            round_start = time.perf_counter()
            for op in ROUND:
                do(op)
            now = time.perf_counter()
            # stop when another round as long as the last would overrun
            if now - start + (now - round_start) > seconds:
                break
    finally:
        cli.release()
    shutil.rmtree(work, ignore_errors=True)

    def med(op: str, field: str) -> float:
        vals = [getattr(s, field) for s in samples if s.op == op and s.ok]
        return statistics.median(vals) if vals else 0.0

    mbit = inp.plain_bits / 1e6
    medians = {f"{op}_s": med(op, "scaled_s") for op in ROUND}
    failed = sum(1 for s in samples if not s.ok)
    metrics = {
        "setup_s": medians["setup_s"],
        "encode_mbit_s": mbit / medians["encode_s"] if medians["encode_s"] else 0.0,
        "decode_mbit_s": mbit / medians["decode_s"] if medians["decode_s"] else 0.0,
        "analyze_s": medians["analyze_s"],
        "encode_peak_rss_mib": med("encode", "rss_mib"),
        "decode_peak_rss_mib": med("decode", "rss_mib"),
        "analyze_peak_rss_mib": med("analyze", "rss_mib"),
        "cipher_ratio": statistics.median(ratios) if ratios else 0.0,
        "success_rate": (len(samples) - failed) / len(samples),
    }
    return samples, metrics, medians


def overhead_report(w: Workload, tracer) -> dict:
    """Traced per-op totals against the latest untraced medians, if any."""
    from traced import CLI_EQUIVALENT

    latest = sorted(
        (OUT / "results").glob(f"{w.name}-seed*-trace0.json"),
        key=lambda p: p.stat().st_mtime,
    )
    untraced = json.loads(latest[-1].read_text())["medians"] if latest else {}
    report = {}
    for op, parts in CLI_EQUIVALENT.items():
        traced = sum(tracer.seconds(p) for p in parts)
        base = untraced.get(f"{op}_s")
        report[op] = {
            "traced_s": traced,
            "untraced_median_s": base,
            "ratio": traced / base if base else None,
        }
    return report


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hfsac" / "cli.py").is_file():
        print(f"error: no hfsac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    pins = load_pins()
    units = declared_metrics(bool(args.trace))
    machine = machine_info()
    print(f"workload {w.name}  seed {args.seed}  variant {w.variant(args.seed)}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    result: dict = {"workload": w.name, "seed": args.seed, "machine": machine}

    if args.trace:
        from traced import traced_run

        tracer, metrics, checks = traced_run(ROOT, w, args.seed, pins)
        attempted, failed = len(checks), sum(1 for ok in checks.values() if not ok)
        for name, ok in checks.items():
            print(f"check {name:<18} {'ok' if ok else 'FAILED'}")
        overhead = overhead_report(w, tracer)
        for op, row in overhead.items():
            base = row["untraced_median_s"]
            print(f"overhead {op:<8} traced {row['traced_s']:.3f} s  untraced "
                  + (f"{base:.3f} s  ratio {row['ratio']:.3f}" if base else "n/a"))
        result.update(checks=checks, overhead=overhead, spans=tracer.spans)
    else:
        samples, metrics, medians = cli_run(w, args.seed, args.seconds, pins)
        attempted, failed = len(samples), sum(1 for s in samples if not s.ok)
        for op in ROUND:
            mine = [s for s in samples if s.op == op]
            print(f"op {op:<8} n={len(mine)} failed={sum(not s.ok for s in mine)}  "
                  + " ".join(f"{s.scaled_s:.3f}s({s.wall_s:.2f})/{s.rss_mib:.0f}MiB"
                             for s in mine))
        result.update(medians=medians, samples=[s.__dict__ for s in samples])

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    for name, value in metrics.items():
        print(f"metric {name:<32} {value:.6g} {units[name]}")
    result.update(metrics=metrics, attempted=attempted, failed=failed)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    out = OUT / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
