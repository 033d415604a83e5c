#!/usr/bin/env python3
"""Print the Casimir spectrum over a block of labels.

Each row lists the exact eigenvalues of the five quadratic invariants on
one basis state, followed by the exact Killing-form Casimir of the closing
ten-generator algebra (constant at -5/4).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from laguerre_ladder import opalgebra


def main(nmax: int = 4) -> None:
    sc = opalgebra.derive_structure_constants()
    names = ("Cp", *opalgebra.SL2_TRIPLES)
    columns = list(zip(names, (5, 8, 8, 6, 6))) + [("Killing", 12)]
    print(f"{'n':>3} {'p':>3} " + " ".join(f"{name:>{width}}" for name, width in columns))
    for n in range(nmax + 1):
        for p in range(nmax + 1):
            row = [opalgebra.casimir_eigenvalue(w, (n, p)) for w in names]
            row.append(opalgebra.killing_casimir(sc, (n, p)))
            cells = (f"{str(v):>{width}}" for v, (_, width) in zip(row, columns))
            print(f"{n:>3} {p:>3} " + " ".join(cells))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
