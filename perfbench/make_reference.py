"""Write reference_pushforward.json, the stored pushforward values that every
field-sample run must reproduce within a relative 1e-12.

Run from the root of a source checkout, at the commit whose values are the
reference:

    python3 perfbench/make_reference.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polar_derham import build_complex  # noqa: E402
from polar_derham.torus import TorusComplexSpec  # noqa: E402
from workloads import REFERENCE_FILE, FieldSample, evaluate_reference, reference_inputs  # noqa: E402

SEED = 20210621
POINTS_PER_LEVEL = 8


def main():
    cx = build_complex(TorusComplexSpec(FieldSample.degrees, FieldSample.dims))
    inputs = [(level, point) for level, _, points in
              reference_inputs(cx, SEED, POINTS_PER_LEVEL) for point in points]
    results = evaluate_reference(cx, SEED, POINTS_PER_LEVEL)
    entries = [{"level": level, "point": [float(x) for x in point],
                "xyz": [float(x) for x in xyz],
                "value": [float(x) for x in (value if level in (1, 2) else [value])]}
               for (level, point), (xyz, value) in zip(inputs, results)]
    REFERENCE_FILE.write_text(json.dumps({
        "degrees": list(FieldSample.degrees), "dims": list(FieldSample.dims),
        "seed": SEED, "points_per_level": POINTS_PER_LEVEL, "entries": entries,
    }, indent=1) + "\n")
    print(f"{len(entries)} reference values written to {REFERENCE_FILE}")


if __name__ == "__main__":
    main()
