"""Private build of the package under test, with its compiled step kernel.

The benchmark never builds into ``src/``: it copies the Python sources of
``src/caosim`` into a directory of its own, compiles the checked-in
``_stepcore.c`` there with the C compiler and flags Python itself was built
with, and byte-compiles the copy so that timed imports do not pay for it.
A build is keyed by a hash of every input, so an unchanged tree reuses it.
"""

from __future__ import annotations

import compileall
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

KERNEL_SOURCE = "_stepcore.c"
# Not copied: build products, and the kernel sources (compiled from src/ instead).
_NOT_COPIED = ("*.so", "*.pyd", "*.c", "*.pyx", "__pycache__")


class BuildError(RuntimeError):
    """The package or its compiled kernel could not be built."""


def compile_command(source: Path, target: Path) -> list[str]:
    """The compiler call that turns ``source`` into the extension ``target``."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "gcc")
    cflags = shlex.split(sysconfig.get_config_var("CFLAGS") or "-O2")
    ccshared = shlex.split(sysconfig.get_config_var("CCSHARED") or "-fPIC")
    include = sysconfig.get_paths()["include"]
    return [*cc, *ccshared, *cflags, "-shared", f"-I{include}", str(source), "-o", str(target)]


def _package_files(src: Path) -> list[Path]:
    return sorted(
        p
        for p in src.rglob("*")
        if p.is_file()
        and "__pycache__" not in p.parts
        and (p.suffix == ".py" or p.name == KERNEL_SOURCE)
    )


def _build_key(src: Path, files: list[Path]) -> str:
    digest = hashlib.sha256()
    digest.update(platform.python_version().encode())
    digest.update(" ".join(compile_command(Path("in"), Path("out"))).encode())
    for path in files:
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def build(root: Path, out_dir: Path) -> tuple[Path, dict]:
    """Build ``root/src/caosim`` into ``out_dir``; return (import dir, build facts).

    The import dir holds a ``caosim`` package whose compiled kernel was built
    from ``src/caosim/_stepcore.c``. Raises :class:`BuildError` when the
    sources are missing or the compiler fails.
    """
    src = root / "src" / "caosim"
    kernel_c = src / KERNEL_SOURCE
    if not (src / "__init__.py").is_file():
        raise BuildError(f"no package sources at {src}")
    if not kernel_c.is_file():
        raise BuildError(f"no compiled-kernel source at {kernel_c}")
    files = _package_files(src)
    key = _build_key(src, files)
    ext = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    lib = out_dir / f"lib-{key[:16]}"
    facts = {
        "source_sha256": key,
        "compile": " ".join(compile_command(Path("src/caosim") / KERNEL_SOURCE, Path("_stepcore" + ext))),
    }
    if (lib / "caosim" / ("_stepcore" + ext)).is_file():
        return lib, facts

    out_dir.mkdir(parents=True, exist_ok=True)
    staging = out_dir / f"staging-{key[:16]}-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    try:
        shutil.copytree(src, staging / "caosim", ignore=shutil.ignore_patterns(*_NOT_COPIED))
        target = staging / "caosim" / ("_stepcore" + ext)
        done = subprocess.run(
            compile_command(kernel_c, target), capture_output=True, text=True, timeout=600
        )
        if done.returncode != 0:
            raise BuildError(f"compiling {kernel_c} failed:\n{done.stderr[-4000:]}")
        if not compileall.compile_dir(str(staging), quiet=1, ddir=str(lib)):
            raise BuildError("byte-compiling the package copy failed")
        try:
            os.rename(staging, lib)
        except OSError:
            # another run finished the same build first; theirs is identical
            if not lib.is_dir():
                raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return lib, facts
