"""Self-tests of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

1. The additivity checker rejects span trees that do not add up.
2. A smoke run (one short round) of every workload, untraced and traced,
   prints every metric named in ``BENCHMARK.json`` with its unit, fails no
   op, and in the traced run the layer shares plus the remainder add up to
   the round's time.
3. A copy of the benchmark without the program sources exits non-zero
   without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import Tracer  # noqa: E402

SEED = 7


def bench_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def command(cfg: dict, root: str) -> list:
    prog, script, *rest = cfg["command"]
    return [sys.executable, os.path.join(root, script), *rest]


def run(cfg: dict, workload: str, trace: int, root: str = ROOT):
    cmd = command(cfg, root) + [
        "--workload", workload, "--seed", str(SEED), "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def check_additivity_checker() -> list:
    """The checker must accept a sound tree and reject two broken ones."""
    errors = []
    t = Tracer()
    with t.op("unit"):
        t.wrap(lambda: t.wrap(lambda: None, "crp.customize")(), "serve.engine")()
    t.set_scale(1.0)
    try:
        t.check_additivity()
    except AssertionError as exc:
        errors.append(f"sound span tree rejected: {exc}")
    for name, mutate in (
        ("child outside its parent", lambda s: s[1].__setitem__(2, s[0][2] + 1.0)),
        ("span outside any op", lambda s: s[1].__setitem__(3, -1)),
    ):
        broken = Tracer()
        broken.spans = [list(x) for x in t.spans]
        mutate(broken.spans)
        try:
            broken.check_additivity()
            errors.append(f"additivity check missed a {name}")
        except AssertionError:
            pass
    return errors


def check_run(cfg: dict, workload: str, trace: int) -> list:
    tag = f"{workload} trace={trace}"
    proc = run(cfg, workload, trace)
    if proc.returncode != 0:
        return [f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["run_record"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or record["failed_frac"] != 0:
        errors.append(f"{tag}: failed {result['failed']} of {result['attempted']} ops")
    if result["attempted"] < 1:
        errors.append(f"{tag}: attempted no op")
    want = {m["name"]: m["unit"] for m in cfg["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    for name in sorted(set(want) | set(got)):
        if name not in got:
            errors.append(f"{tag}: metric {name} missing")
        elif name not in want:
            errors.append(f"{tag}: metric {name} not declared in BENCHMARK.json")
        elif got[name] != want[name]:
            errors.append(f"{tag}: metric {name} has unit {got[name]}, declared {want[name]}")
    for name, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            errors.append(f"{tag}: metric {name} is not a number")
    if trace:
        shares = sum(v["value"] for k, v in result["metrics"].items() if k.endswith("_pct")
                     and k != "trace.overhead_pct")
        if abs(shares - 100.0) > 1e-6:
            errors.append(f"{tag}: layer shares plus remainder add up to {shares}%")
        if record.get("additivity_max_err_s", 1.0) > 1e-6:
            errors.append(f"{tag}: per-op self times do not add up to op time")
    elif result["metrics"]["setup_s"]["value"] <= 0:
        errors.append(f"{tag}: setup_s is not positive")
    return errors


def check_without_sources(cfg: dict) -> list:
    """A checkout holding only the benchmark must fail without a result."""
    box = os.path.join(ROOT, ".perfbench-out", "no-sources")
    shutil.rmtree(box, ignore_errors=True)
    os.makedirs(box)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), box)
        for path in cfg["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(box, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(cfg, cfg["workloads"][0]["name"], 0, root=box)
    finally:
        shutil.rmtree(box, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["benchmark without program sources did not fail cleanly"]
    return []


def main() -> int:
    cfg = bench_config()
    errors = check_additivity_checker()
    for wl in cfg["workloads"]:
        for trace in (0, 1):
            errors += check_run(cfg, wl["name"], trace)
    errors += check_without_sources(cfg)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "ok" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
