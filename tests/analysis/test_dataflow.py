"""Taint framework: propagation through calls, returns, attrs, containers."""

import ast

from repro.analysis.dataflow import TaintAnalysis
from repro.analysis.project import build_project


def _build(tmp_path, files):
    for name, source in files.items():
        dest = tmp_path / name
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(source)
    return build_project([tmp_path], root=tmp_path)


def _run(project):
    def source(callee, call):
        return f"{callee}()" if callee == "time.time" else None

    return TaintAnalysis(project, source).run()


def _returned(analysis, fq):
    """Taint of the value ``fq``'s last ``return`` statement returns."""
    info = analysis.project.functions[fq]
    returns = [n for n in ast.walk(info.node) if isinstance(n, ast.Return)]
    return analysis.taint_of(returns[-1].value, info)


def test_taint_flows_through_return_and_argument(tmp_path):
    project = _build(
        tmp_path,
        {
            "origin.py": (
                "import time\n"
                "def make():\n"
                "    return int(time.time())\n"
            ),
            "sink.py": (
                "from origin import make\n"
                "def use():\n"
                "    v = make()\n"
                "    return v + 1\n"
            ),
        },
    )
    taint = _returned(_run(project), "sink.use")
    assert taint.label == "time.time()"
    assert taint.chain == ("origin.make", "sink.use")


def test_untainted_project_callee_blocks_passthrough(tmp_path):
    project = _build(
        tmp_path,
        {
            "origin.py": "def make():\n    return 42\n",
            "sink.py": (
                "from origin import make\n"
                "def use():\n"
                "    v = make()\n"
                "    return v\n"
            ),
        },
    )
    assert _returned(_run(project), "sink.use") is None


def test_external_call_passes_taint_through_arguments(tmp_path):
    project = _build(
        tmp_path,
        {
            "sink.py": (
                "import time\n"
                "def use():\n"
                "    v = str(int(time.time()))\n"
                "    return v\n"
            ),
        },
    )
    assert _returned(_run(project), "sink.use").label == "time.time()"


def test_taint_through_class_attribute(tmp_path):
    project = _build(
        tmp_path,
        {
            "sink.py": (
                "import time\n"
                "class Holder:\n"
                "    def stamp(self):\n"
                "        self.t0 = time.time()\n"
                "    def read(self):\n"
                "        return self.t0\n"
            ),
        },
    )
    taint = _returned(_run(project), "sink.Holder.read")
    assert taint is not None and taint.chain[0] == "sink.Holder.stamp"


def test_keyword_argument_propagates(tmp_path):
    project = _build(
        tmp_path,
        {
            "origin.py": "import time\ndef make():\n    return time.time()\n",
            "mid.py": (
                "def shape(value=0):\n"
                "    return value\n"
            ),
            "sink.py": (
                "from origin import make\n"
                "from mid import shape\n"
                "def use():\n"
                "    return shape(value=make())\n"
            ),
        },
    )
    analysis = _run(project)
    # mid.shape's return is tainted via its keyword param
    assert "mid.shape" in analysis.returns


def test_tuple_unpack_and_container_taint(tmp_path):
    project = _build(
        tmp_path,
        {
            "sink.py": (
                "import time\n"
                "def use():\n"
                "    a, b = time.time(), 1\n"
                "    box = [a]\n"
                "    return box\n"
            ),
        },
    )
    assert _returned(_run(project), "sink.use").label == "time.time()"


def test_provenance_chain_is_capped():
    from repro.analysis.dataflow import _MAX_CHAIN, Taint

    t = Taint("x()", "f.py", 1)
    for i in range(3 * _MAX_CHAIN):
        t = t.via(f"fn{i}")
    assert len(t.chain) <= _MAX_CHAIN


def test_fixpoint_terminates_on_recursion(tmp_path):
    project = _build(
        tmp_path,
        {
            "sink.py": (
                "import time\n"
                "def ping(v):\n"
                "    return pong(v)\n"
                "def pong(v):\n"
                "    return ping(v)\n"
                "def use():\n"
                "    return ping(time.time())\n"
            ),
        },
    )
    analysis = _run(project)  # must not hang
    # the tainted argument reaches both halves of the cycle
    for fq in ("sink.ping", "sink.pong"):
        info = project.functions[fq]
        v = next(
            n
            for n in ast.walk(info.node)
            if isinstance(n, ast.Name) and n.id == "v"
        )
        assert analysis.taint_of(v, info).label == "time.time()"
