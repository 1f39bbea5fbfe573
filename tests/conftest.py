"""Shared fixtures: the all-forms showcase CAO and a deterministic fuzz corpus,
``random_parameters``, which redraws a CAO's radices and coefficients,
``matrix_step``, the paper's matrix update applied literally, and
``package_imports``, which reads what a ``caosim`` module imports.

Before ``caosim`` is imported, the compiled step kernel is built in place
from ``src/caosim/_stepcore.c`` when a C compiler is present, so the tests
exercise it as well as the pure kernel.
"""

from __future__ import annotations

import ast
import importlib
import math
import os
import random
import shlex
import shutil
import subprocess
import sysconfig
from fractions import Fraction
from pathlib import Path

import pytest


KERNEL_SOURCE = Path(__file__).resolve().parent.parent / "src" / "caosim" / "_stepcore.c"


def kernel_compiler() -> list[str] | None:
    """Python's own C compiler command, or None when it is not on PATH."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    return cc if shutil.which(cc[0]) else None


def kernel_compile_command(output: Path, *extra_flags: str) -> list[str]:
    """Compile ``_stepcore.c`` into the extension ``output`` with Python's
    compiler and flags, followed by ``extra_flags``."""
    return [
        *kernel_compiler(),
        *shlex.split(sysconfig.get_config_var("CCSHARED") or "-fPIC"),
        *shlex.split(sysconfig.get_config_var("CFLAGS") or "-O2"),
        *extra_flags,
        "-shared",
        f"-I{sysconfig.get_paths()['include']}",
        str(KERNEL_SOURCE),
        "-o",
        str(output),
    ]


def _build_kernel() -> None:
    """Compile the kernel next to its source, unless no compiler exists or
    the built module is up to date."""
    target = KERNEL_SOURCE.with_name("_stepcore" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not KERNEL_SOURCE.is_file() or kernel_compiler() is None:
        return
    if target.is_file() and target.stat().st_mtime >= KERNEL_SOURCE.stat().st_mtime:
        return
    partial = target.with_name(f"_stepcore.build-{os.getpid()}.so")
    try:
        subprocess.run(kernel_compile_command(partial), check=True)
        os.replace(partial, target)  # atomic, so a concurrent run never loads half a file
    finally:
        partial.unlink(missing_ok=True)


_build_kernel()

from caosim import (  # noqa: E402
    CaoSpec,
    DerivedOperators,
    derive,
    parse,
    random_cao,
    random_state,
    with_parameters,
)

# One CAO exercising every operator form: an M fans (i, j) into (d, s),
# an L and a D push d and s onward into (g, u), and an F collapses (g, u)
# into the final h. Starts at (100, 100, 0, ...).
SHOWCASE_TEXT = """\
cao showcase {
  initial i = 100
  initial j = 100
  intermediate d
  intermediate s
  intermediate g
  intermediate u
  final h

  M (i:10, j:8) -> (d:1, s:2)
  L (d:8) -> (g:2)
  D (s:10) -> (g:1, u:3)
  F (g:4, u:2) -> (h:1)
}
"""

# Its hand-checked trajectory: state and common-carry vector at every step,
# in entity order (i, j, d, s, g, u, h). The run settles after three updates.
SHOWCASE_TRAJECTORY = (
    ((100, 100, 0, 0, 0, 0, 0), (10, 10, 0, 0, 0, 0, 0)),
    ((0, 20, 10, 20, 0, 0, 0), (0, 0, 1, 2, 0, 0, 0)),
    ((0, 20, 2, 0, 4, 6, 0), (0, 0, 0, 0, 1, 1, 0)),
    ((0, 20, 2, 0, 0, 4, 1), (0, 0, 0, 0, 0, 0, 0)),
)

# A cycle that grows by about half a bit per update, so runs from near 2**63
# cross the int64 boundary mid-run, often more than once.
GROWING_CYCLE_TEXT = """\
cao grow {
  initial a
  initial b
  intermediate c
  F (a:2, b:3) -> (c:4)
  D (c:2) -> (a:3, b:2)
}
"""

# An 8-entity cycle using all four forms: every operator moves as much
# weight out as in, so from (a + 1, a, 0, ...) it never settles.
LOOP_TEXT = """\
cao loop {
  initial i = 500000001
  initial j = 500000000
  intermediate d
  intermediate s
  intermediate g
  intermediate u
  intermediate h
  intermediate k

  M (i:2, j:2) -> (d:2, s:2)
  D (d:2) -> (g:1, u:1)
  D (s:2) -> (g:1, u:1)
  F (g:2, u:2) -> (h:4)
  L (h:2) -> (k:2)
  D (k:4) -> (i:2, j:2)
}
"""


def random_parameters(rng: random.Random, spec):
    """``spec`` with every radix drawn from 2..4 and every coefficient from 1..4."""
    return with_parameters(
        spec,
        [
            ([rng.randint(2, 4) for _ in op.inputs], [rng.randint(1, 4) for _ in op.outputs])
            for op in spec.operators
        ],
    )


# The oracle for ``caosim.step``: the paper's state equation
#     x(k+1) = x(k) + (Rᵀ − N)·Λ⌊N⁻·x(k)⌋
# applied literally to the dense matrices ``derive`` builds, with N⁻ in exact
# Fractions and an integer matrix-vector product.
def reciprocal_radices(d: DerivedOperators) -> tuple[Fraction, ...]:
    """The diagonal of N⁻: 1/n for each radix n, and 0 where N has 0."""
    return tuple(Fraction(1, v) if v else Fraction(0) for v in d.n)


def partial_carries(state, d: DerivedOperators) -> tuple[int, ...]:
    """⌊N⁻·state⌋ componentwise (zero where the reciprocal radix is zero)."""
    return tuple(math.floor(r * s) for s, r in zip(state, reciprocal_radices(d)))


def common_carries(partials, d: DerivedOperators) -> tuple[int, ...]:
    """Λ: each carry group takes its minimum; every other entry passes."""
    pc = list(partials)
    for grp in d.carry_groups:
        low = min(partials[i] for i in grp)
        for i in grp:
            pc[i] = low
    return tuple(pc)


def matrix_step(spec: CaoSpec, state, *, fold: bool = True):
    """``(next, partials, common)``: one update by the matrices of
    ``derive(spec)``. ``fold=False`` skips Λ, which is sound only for CAOs
    without multi-input operators, where Λ is the identity anyway."""
    d = derive(spec)
    p = partial_carries(state, d)
    pc = common_carries(p, d) if fold else p
    tr = d.transition()
    nxt = tuple(s + sum(tr[i][j] * pc[j] for j in range(d.m)) for i, s in enumerate(state))
    return nxt, p, pc


CORPUS_SEED = 0xCA05
CORPUS_SIZE = 1000


def package_imports(module: str) -> set[str]:
    """The ``caosim`` modules that the source of ``caosim.<module>`` imports,
    relatively or by absolute name, anywhere in the file."""
    path = Path(importlib.import_module(f"caosim.{module}").__file__)
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [a.name.split(".") for a in node.names]
            found.update(n[1] if len(n) > 1 else n[0] for n in names if n[0] == "caosim")
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "caosim":
                continue
            inside = parts[1:] if node.level == 0 else parts
            if inside and inside[0]:
                found.add(inside[0])
            else:
                found.update(a.name for a in node.names)
    return found


@pytest.fixture(scope="session")
def showcase() -> CaoSpec:
    return parse(SHOWCASE_TEXT)


@pytest.fixture(scope="session")
def fuzz_corpus() -> list[tuple[CaoSpec, tuple[int, ...]]]:
    """1000 random acyclic CAOs with random start states, fixed seed."""
    rng = random.Random(CORPUS_SEED)
    corpus = []
    for i in range(CORPUS_SIZE):
        spec = random_cao(rng, name=f"fuzz{i}")
        corpus.append((spec, random_state(rng, spec)))
    return corpus
