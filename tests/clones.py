"""Builds of the C step with its clone list cut, and the clone that the
loader dispatches a loaded step to; for tests/test_thermal.py and CI's
"Kernel rate" report.

_step.c's CLONES has GCC emit one body of the step per target of its
target_clones list, and glibc's loader picks one for the CPU when the
library is opened.  A copy whose list is cut to one target and "default"
runs that target's clone on a CPU that has its features, and a copy with
no list is the one portable body that any other platform builds.
"""

import ctypes
import platform
import re
import subprocess
from pathlib import Path

import pytest

from pbfopt import thermal

SOURCE = Path(thermal.__file__).with_name("_step.c")
_CLONES = re.compile(r"__attribute__\(\(target_clones\(([^)]*)\)\)\)")
# the targets of _step.c's clone list, "default" aside
TARGETS = [t for t in re.findall(r'"([^"]*)"', _CLONES.search(SOURCE.read_text())[1])
           if t != "default"]
# the /proc/cpuinfo flags of each target's x86-64 level, those of the levels
# below it included; SSE3 shows as pni and LZCNT as abm
_V3 = ("cx16", "lahf_lm", "popcnt", "pni", "sse4_1", "sse4_2", "ssse3",  # v2
       "avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm", "movbe", "xsave")
FLAGS = {"arch=x86-64-v3": _V3,
         "arch=x86-64-v4": _V3 + ("avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl")}


def cut_source(target, folder: Path) -> Path:
    """_step.c copied into folder with its clone list cut to target and
    "default", or with no list for target None."""
    attribute = f'__attribute__((target_clones("{target}", "default")))' if target else ""
    path = folder / "_step.c"
    path.write_text(_CLONES.sub(attribute, SOURCE.read_text()))
    return path


def load(source: Path, cache: Path):
    """pbfopt_step_block of source, a file named _step.c, built by
    thermal._build into cache/pbfopt and loaded as thermal._step_kernel loads
    the package's own, argument checks included."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(thermal, "__file__", str(source.with_name("thermal.py")))
        patch.setenv("XDG_CACHE_HOME", str(cache))
        return thermal._step_kernel.__wrapped__()


class _DlInfo(ctypes.Structure):
    _fields_ = [("fname", ctypes.c_char_p), ("fbase", ctypes.c_void_p),
                ("sname", ctypes.c_char_p), ("saddr", ctypes.c_void_p)]


def dispatched(step):
    """The clone that step, a loaded pbfopt_step_block, runs: its symbol's
    suffix in the library's symbol table ("arch_x86_64_v4" for the
    arch=x86-64-v4 clone, "default"), read with nm, or None for a build
    without clones."""
    at, info = ctypes.cast(step, ctypes.c_void_p).value, _DlInfo()
    if not ctypes.CDLL(None).dladdr(ctypes.c_void_p(at), ctypes.byref(info)):
        raise OSError(f"no shared library holds the address {at:#x}")
    table = subprocess.run(["nm", info.fname], capture_output=True, text=True,
                           check=True).stdout
    [name] = [name for value, kind, name in
              (line.split() for line in table.splitlines() if len(line.split()) == 3)
              if kind in "tT" and name.startswith("pbfopt_step_block")
              and int(value, 16) == at - info.fbase]
    return name.partition(".")[2] or None


def suffix(target: str) -> str:
    """target's clone suffix as dispatched returns it: arch=x86-64-v3 gives
    arch_x86_64_v3."""
    return re.sub(r"\W", "_", target)


def _gcc_major() -> int:
    """__GNUC__ of the C compiler that thermal._build calls, 0 for clang."""
    macros = subprocess.run([thermal._CC, "-dM", "-E", "-x", "c", "/dev/null"],
                            capture_output=True, text=True, check=True).stdout
    found = re.search(r"#define __GNUC__ (\d+)", macros)
    return 0 if "__clang__" in macros or not found else int(found[1])


def unsupported(target):
    """Why the clone of target cannot run here, or None if it can: the
    compiler is not GCC 11 or later with glibc, which _step.c's guard asks
    for, or the CPU lacks one of the target's /proc/cpuinfo flags."""
    if platform.libc_ver()[0] != "glibc" or _gcc_major() < 11:
        return f"{thermal._CC} is not GCC 11 or later with glibc: CLONES is empty"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            flags = set(re.search(r"^flags\s*:(.*)$", f.read(), re.M)[1].split())
    except (OSError, TypeError):  # no /proc, or no x86 flags line
        flags = set()
    missing = [flag for flag in FLAGS[target] if flag not in flags]
    return f"the CPU lacks {target}'s {', '.join(missing)}" if missing else None
