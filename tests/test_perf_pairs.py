"""``tools/perf_pairs.py`` against two stand-in checkouts.

Each checkout holds a ``perfbench`` package whose ``measure`` prints
one JSON line the way the real one does, with figures that depend on
the side and the seed, so the pairing, the alternation and the summary
can be checked without running a workload.
"""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAKE_MEASURE = '''
import json, sys
args = sys.argv[1:]
seed = int(args[args.index("--seed") + 1])
p50 = {p50} + seed / 1000
metrics = {{
    "setup_s": 0.2, "op_p50_ms": p50, "op_p95_ms": 2 * p50,
    "throughput_ops_s": 1 / p50, "cpu_s": 1.0, "peak_rss_mb": 30.0,
}}
print("noise before the line")
print(json.dumps({{
    "correct": True, "attempted": 10, "failed": 0,
    "metrics": {{k: {{"value": v, "unit": "-"}} for k, v in metrics.items()}},
}}))
'''


def load_tool():
    path = ROOT / "tools" / "perf_pairs.py"
    spec = importlib.util.spec_from_file_location("perf_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root: Path, p50: float) -> Path:
    package = root / "perfbench"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(FAKE_MEASURE.format(p50=p50))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def test_pairs_alternate_and_the_summary_reads_each_direction(
    tmp_path, capsys
):
    parent = checkout(tmp_path / "parent", 1.0)
    change = checkout(tmp_path / "change", 0.5)
    runs = tmp_path / "runs.json"
    status = load_tool().main([
        "--parent", str(parent), "--change", str(change),
        "--workload", "w", "--pairs", "3", "--seed", "7",
        "--json", str(runs),
    ])
    assert status == 0
    order = [(r["seed"], r["side"]) for r in json.loads(runs.read_text())]
    assert order == [
        (7, "parent"), (7, "change"),
        (8, "change"), (8, "parent"),
        (9, "parent"), (9, "change"),
    ]
    out = capsys.readouterr().out
    rows = {
        line.split("|")[1].strip(" `"): line.split("|")[2:-1]
        for line in out.splitlines()
        if line.startswith("| `")
    }
    # Lower is better for p50, higher for throughput: the change wins
    # every pair on both; equal figures win for neither side.
    p50 = [cell.strip() for cell in rows["op_p50_ms"]]
    assert p50[:2] == ["1.008", "0.508"] and p50[3] == "3/3"
    assert rows["throughput_ops_s"][3].strip() == "3/3"
    assert rows["cpu_s"][3].strip() == "0/3"
    assert "6 runs, 0 incorrect" in out
