"""No BLAS call in the simulator, the backends that run it, or the VQC task.

OpenBLAS starts its own thread pool inside every agent worker thread that
calls it, and oversubscribes the cores the workers already share, so the
simulator applies gates and takes inner products elementwise. The VQC
gradient task runs in host worker processes, and in agent threads when it is
not module-level, so its module follows the same rule. This walks the AST of
`qsim/`, `backends.py` and `bench/vqc.py` for the operator and the numpy
functions that would reach BLAS.
"""

import ast
from pathlib import Path

import pilotq

PACKAGE = Path(pilotq.__file__).parent
BLAS_FUNCTIONS = frozenset({"dot", "vdot", "matmul", "einsum", "tensordot", "inner", "linalg"})


def blas_calls(source: str) -> list[str]:
    """`line what` for each `@`, `@=` and `np.<BLAS function>` in a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in {"np", "numpy"}
            and node.attr in BLAS_FUNCTIONS
        ):
            found.append(f"line {node.lineno}: np.{node.attr}")
    return sorted(found)


def test_the_simulator_and_backends_call_no_blas():
    modules = sorted((PACKAGE / "qsim").glob("*.py"))
    modules += [PACKAGE / "backends.py", PACKAGE / "bench" / "vqc.py"]
    assert len(modules) > 1
    found = {
        str(path.relative_to(PACKAGE)): calls
        for path in modules
        if (calls := blas_calls(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_blas_scan_flags_only_blas_calls():
    source = (
        "import numpy as np\n"
        "a = m @ v\n"
        "m @= v\n"
        "b = np.dot(m, v) + np.vdot(m, v)\n"
        "c = np.linalg.norm(v)\n"
        "d = numpy.einsum('i,i', v, v)\n"
        "e = np.tensordot(m, v, 1), np.matmul(m, v), np.inner(v, v)\n"
        "f = inner(v, v) + np.sum(v * v) + m.dot\n"
        "g = np.multiply(m, v)\n"
    )
    assert blas_calls(source) == [
        "line 2: @",
        "line 3: @",
        "line 4: np.dot",
        "line 4: np.vdot",
        "line 5: np.linalg",
        "line 6: np.einsum",
        "line 7: np.inner",
        "line 7: np.matmul",
        "line 7: np.tensordot",
    ]
