import json
import types

import pytest

from rgbench.trace import Tracer
from rgbench.workloads import WORKLOADS, Mismatch


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name):
    w = WORKLOADS[name]
    first = w.inputs(7)
    assert first == w.inputs(7)
    assert first != w.inputs(8)
    assert len(first) > 1


@pytest.mark.parametrize("name", ["det-highspin", "det-wide"])
def test_determinant_checks_pass_and_catch_a_wrong_value(name, tmp_path):
    w = WORKLOADS[name]
    inp = w.inputs(1)[1]
    value = w.op(inp, tmp_path / "op.json")
    assert w.check(1, inp, value, tmp_path / "op.json")
    with pytest.raises(Mismatch):
        w.check(1, inp, value + 1, tmp_path / "op.json")


def test_highspin_compares_every_128th_op_with_the_permanent_route(tmp_path):
    w = WORKLOADS["det-highspin"]
    inp = w.inputs(1)[1]
    value = w.op(inp, tmp_path / "op.json")
    assert "z_permanent exact" in w.check(0, inp, value, tmp_path / "op.json")
    assert "z_permanent exact" not in w.check(1, inp, value, tmp_path / "op.json")


def test_bethe_check_recomputes_the_residual(tmp_path):
    w = WORKLOADS["bethe-quad"]
    bits = w.inputs(1)[1]
    out = tmp_path / "op.json"
    code = w.op(bits, out)
    assert w.check(0, bits, code, out)
    doc = json.loads(out.read_text())
    doc["quad"]["lambdas"][0] += 1e-8
    out.write_text(json.dumps(doc))
    with pytest.raises(Mismatch):
        w.check(0, bits, code, out)


def test_identity_check_reads_the_cli_documents(tmp_path):
    w = WORKLOADS["verify-identity"]
    sweeps = w.inputs(1)[1]
    assert [(two_s, n) for two_s, n, _ in sweeps] == [(1, 10), (2, 9), (4, 7), (6, 5)]
    out = tmp_path / "op.json"
    codes = w.op(sweeps, out)
    assert codes == (0, 0, 0, 0)
    assert w.check(0, sweeps, codes, out)
    with pytest.raises(Mismatch):
        w.check(0, sweeps, (0, 2, 0, 0), out)
    doc = json.loads((tmp_path / "op-6.json").read_text())
    doc["passed"] = 0
    (tmp_path / "op-6.json").write_text(json.dumps(doc))
    with pytest.raises(Mismatch):
        w.check(0, sweeps, codes, out)


def test_tracer_records_nested_spans_and_restores_originals():
    mod = types.ModuleType("fake")
    mod.outer = lambda x: mod.inner(x) + 1
    mod.inner = lambda x: x * 2
    original_inner = mod.inner
    tracer = Tracer(layers=(("fake.outer", ((mod, "outer"),), None),
                            ("fake.inner", ((mod, "inner"),), None),
                            ("fake.gone", ((mod, "gone"),), None)))
    assert tracer.absent == ["fake.gone"]
    tracer.install()
    tracer.begin("op", op=0)
    assert mod.outer(3) == 7
    tracer.end()
    tracer.uninstall()
    assert mod.inner is original_inner
    names = [s[2] for s in tracer.spans]
    assert names == ["op", "fake.outer", "fake.inner"]
    assert [s[1] for s in tracer.spans] == [None, 0, 1]
    totals = tracer.totals()
    assert totals["op"]["s"] == pytest.approx(
        totals["op"]["self_s"] + totals["fake.outer"]["self_s"] + totals["fake.inner"]["s"])
