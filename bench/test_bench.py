"""Tests of the benchmark itself: seeded inputs, output checks, tracer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import configparser
import csv
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import torusmix  # noqa: E402
import torusmix.cli as cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL_LADDER = """\
[experiment]
type = covariance-ladder
N = 4

[flow]
kind = shear
profile =
    0 1 sin 1.0

[noise]
modes =
    0 1 cos 1.0
    1 1 cos 0.5

[covariance-ladder]
nu = 0.2 0.1
"""


def _flows(configs: dict) -> dict:
    out = {}
    for name, text in configs.items():
        cfg = configparser.ConfigParser(interpolation=None)
        cfg.read_string(text)
        out[name] = dict(cfg["flow"])
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_configs_other_seed_other_flow(name):
    first, second = workloads.generate(name, 7), workloads.generate(name, 7)
    assert first == second
    other_configs, _, _ = workloads.generate(name, 8)
    before, after = _flows(first[0]), _flows(other_configs)
    assert before.keys() == after.keys()
    assert any(before[k] != after[k] for k in before)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_configs_parse(tmp_path, name):
    configs, oracle, _ = workloads.generate(name, 3)
    for cname, text in list(configs.items()) + [("oracle", oracle)] * bool(oracle):
        path = tmp_path / f"{cname}.ini"
        path.write_text(text)
        cli.parse_spec(str(path))


def test_every_part_runs_in_one_workload_with_its_own_seeding():
    placed = [part for w in workloads.WORKLOADS.values() for part in w.parts]
    assert sorted(placed) == sorted(workloads.PARTS)
    for name, w in workloads.WORKLOADS.items():
        configs, oracle, part_of = workloads.generate(name, 5)
        assert set(part_of) == set(configs) | ({"oracle"} if oracle else set())
        assert set(part_of.values()) == set(w.parts)
        for part in w.parts:
            alone, _ = workloads.PARTS[part](random.Random(f"{part}:5"))
            assert {c: configs[c] for c in alone} == alone


def _run_small(tmp_path):
    config = tmp_path / "ladder.ini"
    config.write_text(SMALL_LADDER)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(config), "--out", str(out)])
    return cli.parse_spec(str(config)), out, code


def test_corrupted_payload_counts_as_failure(tmp_path):
    spec, out, code = _run_small(tmp_path)
    assert checks.check_run(spec, out, code) == []
    digest, _ = checks.payload_digest(out)

    summary = out / "summary.csv"
    rows = list(csv.DictReader(summary.open()))
    rows[0]["h1_trace"] = repr(float(rows[0]["h1_trace"]) * (1 + 1e-6))
    with summary.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert checks.check_run(spec, out, code)

    corrupted, _ = checks.payload_digest(out)
    assert checks.repeat_failures([digest, corrupted, digest]) == 1


def test_timestamps_are_not_payload(tmp_path):
    spec, out, code = _run_small(tmp_path)
    digest, _ = checks.payload_digest(out)
    (out / "timestamps.txt").write_text("elapsed_seconds = 1e9\n")
    assert checks.payload_digest(out)[0] == digest


def test_failed_runs_are_counted(tmp_path):
    spec, out, _ = _run_small(tmp_path)
    assert checks.check_run(spec, out, 3) == ["exit code 3"]
    (out / "error.json").write_text("{}\n")
    assert checks.check_run(spec, out, 0) == ["error.json written"]


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    # the package attribute ``simulate`` is the function, not the module
    operators, covariance, simulate = (
        sys.modules[f"torusmix.{m}"] for m in ("operators", "covariance", "simulate"))
    original = operators.generator
    blocks = operators.invariant_blocks
    tracer = Tracer()
    assert tracer.install(torusmix) > 0
    try:
        for module in (torusmix, operators, cli, simulate):
            assert module.generator.__wrapped__ is original
        for module in (torusmix, operators, covariance):
            assert module.invariant_blocks.__wrapped__ is blocks
        spec, out, code = _run_small(tmp_path)
    finally:
        tracer.uninstall()
    assert code == 0
    assert cli.generator is original and simulate.generator is original
    assert covariance.invariant_blocks is blocks
    bindings = tracer.install(torusmix)     # every traced pass installs again
    tracer.uninstall()
    assert bindings > 0 and cli.generator is original

    names = [span[0] for span in tracer.spans]
    assert names.count("generator") == 2          # one per nu, called from cli
    assert names.count("invariant_blocks") == 2   # called from covariance
    assert tracer.counts["covariance.lyapunov_calls"] == 2
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["main", "parse_spec"]
    root_time = sum(end - start for _, start, end, _ in roots)
    assert sum(tracer.self_times().values()) == pytest.approx(root_time, rel=1e-9)
    layers = tracer.layer_self_times()
    assert layers["covariance.export"] > 0 and layers["cli.parse"] > 0


def test_benchmark_json_matches_what_runs_report():
    import json

    import measure
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(measure.PER_LAYER)
    assert all(m["unit"] == run._per_layer_unit(m["name"]) for m in spec["per_layer"])
