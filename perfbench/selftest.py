"""Self-test of the benchmark at tiny sizes (``run.py --smoke``).

Runs every workload once end to end and once traced, checks that each
metric named in BENCHMARK.json is emitted with its unit and that outputs
pass their checks, then flips one byte of ``retained_ids.txt`` and checks
that the damaged output is counted as a failed command.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _flip_byte(out: Path) -> None:
    path = out / "select-keep" / "retained_ids.txt"
    data = bytearray(path.read_bytes())
    data[0] ^= 0x01
    path.write_bytes(bytes(data))


def _missing(line: dict, wanted: list[dict]) -> list[str]:
    got = line["metrics"]
    return [m["name"] for m in wanted
            if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]


def smoke(run_one) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    def report(what: str, found: list[str]) -> None:
        print(f"{'FAIL' if found else 'PASS'} {what}" + "".join(f"; {f}" for f in found),
              flush=True)
        problems.extend(found)
    for name in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            line = run_one(name, 0, 0.0, trace, scale="smoke", quiet=True)
            found = []
            if not line["correct"]:
                found.append(f"not correct ({line['failed']}/{line['attempted']} failed)")
            missing = _missing(line, wanted)
            if missing:
                found.append(f"missing or wrong unit: {missing}")
            report(f"{name} trace {trace}", found)
    line = run_one("density-prune", 0, 0.0, 0, scale="smoke", corrupt=_flip_byte, quiet=True)
    report(f"flipped byte in retained_ids.txt counted ({line['failed']}/{line['attempted']})",
           [] if line["failed"] >= 1 and not line["correct"] else ["not counted"])
    return 1 if problems else 0
