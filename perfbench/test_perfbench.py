"""Tests of the benchmark itself (not collected by the repository suite).

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, install_layer_wrappers  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _main(capsys, tmp_path, *args) -> tuple[int, list[str], dict]:
    rc = run.main(["--smoke", "--seconds", "1", "--out", str(tmp_path),
                   *args])
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, lines, json.loads(lines[-1])


def _snapshot() -> dict:
    """Every attribute the layer wrappers may replace."""
    from repro.core.analyzer import DependencyAnalyzer
    from repro.core.backends import ProcessBackend, ThreadBackend
    from repro.core.fields import Field
    from repro.core.program import Program
    from repro.core.runtime import ReadyQueue
    from repro.stream.gate import CreditGate
    from repro.stream.retire import Retirer

    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in vars(mod).items():
                if callable(value):
                    snap[(name, attr)] = value
    for cls in (DependencyAnalyzer, Field, ReadyQueue, ThreadBackend,
                ProcessBackend, Program, CreditGate, Retirer):
        for attr, value in vars(cls).items():
            snap[(cls.__qualname__, attr)] = value
    return snap


def test_wrappers_restored_after_traced_run(capsys, tmp_path):
    before = _snapshot()
    tracer = Tracer()
    install_layer_wrappers(tracer)
    try:
        changed = {k for k, v in _snapshot().items() if before.get(k) is not v}
    finally:
        tracer.restore()
    assert ("Field", "fetch") in changed
    assert ("repro.media.jpeg", "encode_block") in changed
    restored = _snapshot()
    assert all(restored[k] is v for k, v in before.items())

    rc, _, out = _main(capsys, tmp_path, "--workload", "mjpeg-cif",
                       "--trace", "1")
    assert rc == 0 and out["correct"]
    after = _snapshot()
    assert all(after[k] is v for k, v in before.items())


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    clock = iter(range(100))

    def child():
        next(clock)

    wrapped_child = tracer.wrap("b.child", child)

    def parent():
        wrapped_child()
        wrapped_child()

    tracer.wrap("a.parent", parent)()
    totals = tracer.totals()
    p, c = totals["a.parent"], totals["b.child"]
    assert c[0] == 2 and p[0] == 1
    assert p[3] == pytest.approx(p[1] - c[1])
    assert [s[4] for s in tracer.spans] == ["a.parent", "a.parent", None]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_spec_metrics(capsys, tmp_path, workload, trace):
    rc, lines, out = _main(capsys, tmp_path, "--workload", workload,
                           "--trace", str(trace))
    assert rc == 0
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == want
    declared = {
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    }
    printed = [
        ln.split()[0] for ln in lines[:-1]
        if ln.startswith("  ") and len(ln.split()) == 3
    ]
    assert printed and set(printed) <= declared
    for name in out["metrics"]:
        assert isinstance(out["metrics"][name]["value"], float)


def _corrupting(cls, monkeypatch):
    """Make every program run of ``cls`` deliver one flipped byte."""
    orig = cls.build

    def build(self, inputs, seconds=0.0):
        built = orig(self, inputs, seconds)
        inner = built.outputs

        def outputs():
            data = inner()
            if isinstance(data, dict):  # live: age -> frame bytes
                age = min(data)
                frame = bytearray(data[age])
                frame[len(frame) // 2] ^= 0xFF
                data[age] = bytes(frame)
                return data
            flipped = bytearray(data)
            flipped[len(flipped) // 2] ^= 0xFF
            return bytes(flipped)

        built.outputs = outputs
        return built

    monkeypatch.setattr(cls, "build", build)


@pytest.mark.parametrize(
    "cls", [workloads.MjpegCif, workloads.MjpegCifLive]
)
def test_corrupted_byte_fails_every_item(capsys, tmp_path, monkeypatch,
                                         cls):
    _corrupting(cls, monkeypatch)
    rc, lines, out = _main(capsys, tmp_path, "--workload", cls.name)
    assert rc == 1
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] > 0
    row = next(ln for ln in lines if ln.split()[:1] == ["error_rate"])
    assert float(row.split()[1]) == 1.0


def test_compare_refuses_other_hosts(tmp_path, capsys):
    rec = {
        "workload": "mjpeg-cif", "seed": 1, "seconds": 30, "trace": 0,
        "smoke": False,
        "host": {"nproc": 2, "cpu_model": "A", "python": "3.11.7",
                 "numpy": "2.4.6", "loadavg": 0.1},
        "end_to_end": {m["name"]: 1.0 for m in SPEC["end_to_end"]},
    }
    base, change = tmp_path / "base.json", tmp_path / "change.json"
    base.write_text(json.dumps(rec))
    same_host = dict(rec, host=dict(rec["host"], loadavg=1.5))
    change.write_text(json.dumps(same_host))
    assert compare.main([str(base), str(change)]) == 0
    other = dict(rec, host=dict(rec["host"], cpu_model="B"))
    change.write_text(json.dumps(other))
    assert compare.main([str(base), str(change)]) == 2
    assert "different fingerprints" in capsys.readouterr().err
