"""Record the reference values that the torus checks compare against.

    PYTHONPATH=src python3 bench/record_reference.py

Rewrites ``bench/reference.json`` with the leading coefficient D of every
catalogued configuration and delta0, G* of every catalogued point set, and
the diagonal regular part of the default torus. The checked-in file was
recorded at the commit that introduced the benchmark; re-record only when a
change of these values is intended.
"""

from __future__ import annotations

import json

import numpy as np

import liouville as lv
from workloads import (
    DELTAS,
    FIELD_KINDS,
    REFERENCE,
    leading_config,
    leading_key,
    leading_point_sets,
)


def main() -> None:
    gamma_diag, _ = lv.regular_part(lv.TorusGreen(), np.zeros(2))
    out = {"gamma_diagonal": gamma_diag, "gstar": {}, "leading": {}}
    for k, sets in leading_point_sets().items():
        for j, points in enumerate(sets):
            for field_kind in FIELD_KINDS:
                config = leading_config(points, field_kind)
                out["gstar"][leading_key(k, j, field_kind)] = config.gstar.values.tolist()
                for delta0 in DELTAS:
                    result = lv.leading_term_general(config, delta0, 1e-3)
                    out["leading"][leading_key(k, j, field_kind, delta0)] = float(result.D)
                    print(leading_key(k, j, field_kind, delta0), repr(float(result.D)), flush=True)
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
