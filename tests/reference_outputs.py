"""Write the reference output set, 27 data files, in one process: the six
default scenarios, singularity at dt = 0.1, and verify at seeds 0, 1 and 2,
each into OUT/<label>/:

    PYTHONPATH=src python tests/reference_outputs.py OUT

Two checkouts, or two runs of one, are compared by

    diff -r -x manifest.json -x config.ini OUT_A OUT_B

since the manifests hold timings and config.ini the output directory; every
other file must be byte-identical. The exit status is the worst of the
runs' CLI statuses. Not a test module: pytest does not collect it.
"""

import sys
from pathlib import Path

from nhscatter.cli import main
from nhscatter.experiments import SCENARIOS

RUNS = {name: [name] for name in SCENARIOS}
RUNS["singularity-dt0.1"] = ["singularity", "--set", "time.dt=0.1"]
RUNS.update({f"verify-seed{seed}": ["verify", "--set", f"seed={seed}"] for seed in (0, 1, 2)})


def write_reference_outputs(out: Path) -> int:
    return max(main([*args, "--out", str(out / label)]) for label, args in RUNS.items())


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    sys.exit(write_reference_outputs(Path(sys.argv[1])))
