"""Tests of the benchmark's own bookkeeping.

Run from the root of the checkout:  python3 -m pytest perfbench/tests
"""

import json
import os
import sys
import threading
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import spans as sp  # noqa: E402
import hostprobe  # noqa: E402
from scalar_loop import ScalarCheckError, scalar_rates  # noqa: E402


def make_package(name, modules):
    """A throwaway package: {module name: source} executed as modules."""
    made = {name: types.ModuleType(name)}
    for mod, source in modules.items():
        m = types.ModuleType("%s.%s" % (name, mod))
        exec(source, m.__dict__)
        made[m.__name__] = m
    sys.modules.update(made)
    return made


@pytest.fixture
def package():
    made = {}

    def build(name, modules):
        made.update(make_package(name, modules))
        return made

    yield build
    for n in made:
        sys.modules.pop(n, None)


WORK = '''
import time

def burn(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass

def inner():
    burn(0.01)

def outer():
    burn(0.005)
    inner()
    inner()
'''


def test_self_times_add_up_on_two_threads(package):
    mods = package("fakework", {"work": WORK})
    tracer = sp.Tracer("fakework")
    tracer.install(["work:outer", "work:inner"])
    work = mods["fakework.work"]
    threads = [threading.Thread(target=work.outer) for _ in range(2)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        tracer.uninstall()
    assert not any(t.is_alive() for t in threads)
    assert tracer.absent == []

    spans = {s[sp.ID]: s for s in tracer.spans}
    outers = [s for s in spans.values() if s[sp.NAME] == "work.outer"]
    inners = [s for s in spans.values() if s[sp.NAME] == "work.inner"]
    assert len(outers) == 2 and len(inners) == 4
    assert len({s[sp.THREAD] for s in outers}) == 2
    for s in inners:
        parent = spans[s[sp.PARENT]]
        assert parent[sp.NAME] == "work.outer"
        assert parent[sp.THREAD] == s[sp.THREAD]
        assert s[sp.SELF_CPU] == s[sp.CPU]
    for o in outers:
        children = [s for s in inners if s[sp.PARENT] == o[sp.ID]]
        assert len(children) == 2
        assert o[sp.SELF_CPU] + sum(c[sp.CPU] for c in children) == \
            pytest.approx(o[sp.CPU], abs=1e-9)
        assert o[sp.SELF_CPU] >= 0.004

    by_name, by_module = sp.aggregate(tracer.spans)
    assert by_name["work.outer"]["calls"] == 2
    assert by_name["work.inner"]["calls"] == 4
    assert by_module["work"] == pytest.approx(
        sum(s[sp.CPU] for s in outers), abs=1e-9)
    # uninstall restores the original objects
    assert not hasattr(work.inner, "__wrapped__")


def test_patching_by_identity_catches_imports_by_name(package):
    mods = package("fakeid", {
        "a": "def f(x):\n    return x + 1\n\n"
             "class K:\n    def m(self):\n        return 2\n    alias = m\n",
        "b": "",
    })
    a, b = mods["fakeid.a"], mods["fakeid.b"]
    # what `from .a import f` leaves in module b
    b.f = a.f
    exec("def g():\n    return f(1)\n", b.__dict__)
    original = a.f
    tracer = sp.Tracer("fakeid")
    tracer.install(["a:f", "a:K.m"], keep_arg0=("a:f",))
    try:
        assert b.g() == 2
        assert a.K().alias() == 2
    finally:
        tracer.uninstall()
    assert a.f is original and b.f is original
    names = [s[sp.NAME] for s in tracer.spans]
    assert names == ["a.f", "a.K.m"]
    assert tracer.spans[0][sp.ARG0] == 1


def test_missing_names_are_absent(package):
    package("fakeabsent", {"a": "def f():\n    return 1\n\n"
                                "class K:\n    pass\n"})
    tracer = sp.Tracer("fakeabsent")
    tracer.install(["a:gone", "nomodule:f", "a:K.gone", "a:f"])
    tracer.uninstall()
    assert tracer.absent == ["a.gone", "nomodule.f", "a.K.gone"]


def test_scalar_loop_detects_a_wrong_result():
    from desmic_kit import scalars

    class BadMod(scalars.Mod):
        __slots__ = ()

        def __mul__(self, other):
            return scalars.Mod(self.v * other.v + 1, self.p)

    rates, _ = scalar_rates(scalars, seed=1, n=50)
    assert all(r > 0 for r in rates.values())
    bad = types.SimpleNamespace(QI=scalars.QI, Mod=BadMod, F4=scalars.F4)
    with pytest.raises(ScalarCheckError):
        scalar_rates(bad, seed=1, n=50)


def test_host_probe_reports_a_speed():
    with hostprobe.HostProbe() as probe:
        pass
    assert len(probe.samples) >= 1
    assert probe.wall_speed() > 0 and probe.cpu_speed() > 0


def test_host_probe_detects_a_changed_job(monkeypatch):
    monkeypatch.setattr(hostprobe, "probe_job", lambda: (0, 0))
    with pytest.raises(hostprobe.ProbeError):
        with hostprobe.HostProbe():
            pass


def test_benchmark_json_names_the_metrics_the_runs_print():
    import workloads
    import trace_run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        trace_run.layer_metrics()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_scaled_s", "cpu_scaled_s", "setup_s", "peak_rss_mb",
        "checks_match_frac"}
