"""crowdmtl benchmark: four workloads, closed loop, one client, `--jobs 1`.

    python3 benchmarks/run.py --workload p1_snippet --seed 7 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 7 --seconds 20 --trace 1

Inputs are generated from the seed before timing starts. Each pass then
runs in a fresh interpreter, and the next pass starts only when the
previous one has ended, until `--seconds` of passes have run (at least
three). Untraced runs report the end-to-end metrics; traced runs
alternate untraced and traced passes and report the per-layer metrics.
Every pass checks its outputs. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("p1_snippet", "p2_transfer", "graph_scale", "trace_qc")
FITS = {"p1_snippet": 840, "p2_transfer": 168, "graph_scale": 12, "trace_qc": 0}
# operations a pass attempts: result rows, fits, or CLI commands
OPS = {"p1_snippet": 8, "p2_transfer": 8, "graph_scale": 12, "trace_qc": 3}

MIN_PASSES = 3
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 150  # no pass starts that would end after this, set-up included

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "_s": "s",
    "_ms_p50": "ms",
    "_ms_p90": "ms",
    "us_per_iter": "us",
    "iters_per_fit": "iter/fit",
    "smooth_evals_per_iter": "eval/iter",
    "bytes_computed": "B",
}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    """One workload at one seed: generate inputs, then passes until time is up."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, work: Path):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = work
        self.inputs = work / "inputs"
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.findings: list[str] = []

    def _child(self, args, timeout):
        return subprocess.run(
            [sys.executable, *args],
            env=self.env,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )

    def generate(self) -> None:
        started = time.monotonic()
        done = self._child(
            [str(HERE / "passes.py"), "generate", "--workload", self.workload,
             "--seed", str(self.seed), "--inputs", str(self.inputs)],
            timeout=PASS_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise SystemExit(f"input generation failed:\n{done.stderr[-2000:]}")
        self.generate_s = time.monotonic() - started

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        self.findings.append(message)

    def selftest(self) -> None:
        self.attempted += 1
        done = self._child([str(HERE / "selftest.py")], timeout=PASS_TIMEOUT_S)
        if done.returncode != 0:
            self.fail(f"counter self-test failed:\n{done.stderr[-2000:]}")

    def one_pass(self, traced: bool) -> None:
        k = len(self.passes)
        out = self.work / f"pass{k}"
        result_path = self.work / f"pass{k}.json"
        args = [str(HERE / "passes.py"), "pass", "--workload", self.workload,
                "--seed", str(self.seed), "--inputs", str(self.inputs),
                "--out", str(out), "--result", str(result_path),
                "--trace", str(int(traced)), "--spawned"]
        started = time.monotonic()
        try:
            done = self._child(args + [repr(started)], timeout=PASS_TIMEOUT_S)
            error = None if done.returncode == 0 else done.stderr[-2000:]
        except subprocess.TimeoutExpired:
            error = f"pass timed out after {PASS_TIMEOUT_S} s"
        elapsed = time.monotonic() - started
        if error is not None or not result_path.is_file():
            self.passes.append({"traced": traced, "elapsed": elapsed, "ok": False})
            self.attempted += OPS[self.workload] + 1
            self.fail(f"pass {k}: {error}", OPS[self.workload] + 1)
            return
        result = json.loads(result_path.read_text())
        result.update(traced=traced, elapsed=elapsed, ok=True)
        self.passes.append(result)
        self.attempted += result["ops"] + 1  # its operations plus the digest check
        for finding in result["findings"]:
            self.fail(f"pass {k}: {finding}")
        first = next(p for p in self.passes if p["ok"])
        if result["digests"] != first["digests"]:
            self.fail(f"pass {k}: outputs differ from pass {self.passes.index(first)}")
        if traced and result["layers"]["solvers.fit_calls"] != FITS[self.workload]:
            self.fail(
                f"pass {k}: {result['layers']['solvers.fit_calls']:.0f} fits, "
                f"expected {FITS[self.workload]}"
            )
        shutil.rmtree(out, ignore_errors=True)

    def execute(self) -> None:
        t0 = time.monotonic()
        self.generate()
        if self.trace:
            self.selftest()
        begin = time.monotonic()
        min_passes = 2 * MIN_PASSES if self.trace else MIN_PASSES
        while True:
            done = [p["elapsed"] for p in self.passes]
            typical = statistics.median(done) if done else 0.0
            now = time.monotonic()
            if now - t0 + typical > RUN_LIMIT_S and done:
                break
            if len(done) >= min_passes and now - begin + typical > self.seconds:
                break
            self.one_pass(traced=self.trace and len(done) % 2 == 1)

    # ------------------------------------------------------------------

    def metrics(self) -> dict:
        ok = [p for p in self.passes if p["ok"]]
        plain = [p for p in ok if not p["traced"]]
        if not self.trace:
            return {
                name: {"value": statistics.median(p[name] for p in plain), "unit": unit}
                for name, unit in END_TO_END.items()
            }
        traced = [p for p in ok if p["traced"]]
        names = list(traced[0]["layers"]) if traced else []
        out = {
            name: {
                "value": statistics.median(p["layers"][name] for p in traced),
                "unit": layer_unit(name),
            }
            for name in names
        }
        overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(
            p["wall_s"] for p in plain
        )
        out["tracing_overhead_s"] = {"value": overhead, "unit": "s"}
        return out

    def report(self, metrics: dict) -> list[str]:
        """Human-readable lines: every metric by name with its unit."""
        ok = [p for p in self.passes if p["ok"]]
        plain = [p for p in ok if not p["traced"]]
        w = self.workload
        lines = []
        if plain:
            q1, wall, q3 = quartiles([p["wall_s"] for p in plain])
            lines.append(
                f"{w} wall_s median {wall:.4f} s  quartiles {q1:.4f} .. {q3:.4f} s  "
                f"({len(plain)} untraced passes)"
            )
            for name in ("setup_s", "peak_rss_mb"):
                q1, med, q3 = quartiles([p[name] for p in plain])
                unit = END_TO_END[name]
                lines.append(f"{w} {name} median {med:.4f} {unit}  quartiles {q1:.4f} .. {q3:.4f}")
            if w == "trace_qc":
                rows = json.loads((self.inputs / "planted.json").read_text())["trace_rows"]
                lines.append(f"{w} trace_rows_per_s {rows / wall:.1f} 1/s  ({rows} input rows)")
            else:
                lines.append(f"{w} fits_per_s {FITS[w] / wall:.2f} 1/s  ({FITS[w]} fits per pass)")
        lines.append(f"{w} inputs generated in {self.generate_s:.2f} s (untimed)")
        failed = min(self.failed, self.attempted)
        lines.append(
            f"{w} fail_ratio {failed / max(self.attempted, 1):.4f}  "
            f"({failed} failed of {self.attempted} attempted)"
        )
        if self.trace:
            traced = [p for p in ok if p["traced"]]
            for name, entry in metrics.items():
                values = [p["layers"].get(name, 0.0) for p in traced]
                spread = ""
                if entry["unit"] == "count" and max(values) != min(values):
                    spread = f"  (differs between traced passes: {min(values):g} .. {max(values):g})"
                lines.append(f"{w} {name} {entry['value']:.6g} {entry['unit']}{spread}")
        for finding in self.findings:
            lines.append(f"{w} FAILED {finding}")
        return lines

    def record(self) -> dict:
        info = json.loads((self.inputs / "runinfo.json").read_text())
        ok = [p for p in self.passes if p["ok"]]
        return {
            "workload": self.workload,
            "seed": self.seed,
            "traced": bool(self.trace),
            "passes": len(self.passes),
            "digests": ok[0]["digests"] if ok else {},
            **info,
        }


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src" / "crowdmtl").glob("*.py"))
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crowdmtl" / "__init__.py").is_file():
        print(f"error: no crowdmtl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    base = ROOT / ".bench_work"
    correct, attempted, failed, metrics = True, 0, 0, {}
    shared = {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "src_crowdmtl_lines": src_lines(),
        "machine_tuning": "none: no CPU pinning, no cache dropping, no frequency or scheduler changes",
    }
    for workload in workloads:
        work = base / f"{workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        run = Run(workload, args.seed, args.seconds, bool(args.trace), work)
        try:
            run.execute()
            kinds = {p["traced"] for p in run.passes if p["ok"]}
            if kinds != ({False, True} if args.trace else {False}):
                print("\n".join(run.findings), file=sys.stderr)
                print(f"error: no {workload} pass of each kind succeeded", file=sys.stderr)
                return 1
            m = run.metrics()
            for line in run.report(m):
                print(line)
            print("run record: " + json.dumps({**shared, **run.record()}, sort_keys=True))
            if args.trace:
                spans = [
                    {"pass_id": i, "spans": p["spans"]}
                    for i, p in enumerate(run.passes)
                    if p["ok"] and p["traced"]
                ]
                (base / f"spans-{workload}-seed{args.seed}.json").write_text(json.dumps(spans))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        n_failed = min(run.failed, run.attempted)
        correct = correct and n_failed == 0
        attempted += run.attempted
        failed += n_failed
        prefix = "" if len(workloads) == 1 else f"{workload}."
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
