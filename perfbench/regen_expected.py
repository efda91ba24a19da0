"""Regenerate perfbench/expected/*.json from the current program.

    python3 perfbench/regen_expected.py [workload ...]

Run only when a change is meant to alter the program's outputs; the
benchmark fails every run whose outputs differ from these files.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from ledger import Ledger  # noqa: E402
from run import workload_classes  # noqa: E402
import workloads  # noqa: E402


def regenerate(name: str, workdir: Path) -> dict:
    cls = workload_classes()[name]
    if cls is workloads.PaperReport:
        runs = [cls(0, workdir, scale=scale) for scale in workloads.PAPER_SCALES]
    elif cls is workloads.PopulationSweep:
        runs = [cls(variant, workdir) for variant in range(workloads.CATALOGUE)]
    else:
        runs = [cls(0, workdir)]
    outputs: dict = {}
    for wl in runs:
        try:
            wl.setup()
            for key, values in wl.iterate(Ledger(traced=False)).outputs.items():
                outputs.setdefault(key, {}).update(values)
        finally:
            wl.close()
        print(f"{name}: seed {wl.seed} done", file=sys.stderr)
    return outputs


def main(names: list[str]) -> int:
    workloads.EXPECTED.mkdir(exist_ok=True)
    scratch = HERE.parent / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="regen-", dir=scratch))
    try:
        for name in names or sorted(workload_classes()):
            outputs = regenerate(name, workdir)
            with open(workloads.EXPECTED / f"{name}.json", "w") as fh:
                json.dump(outputs, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
