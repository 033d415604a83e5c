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
    print(f"{'n':>3} {'p':>3} {'Cp':>5} {'Csu2':>8} {'Csu11':>8} {'CR':>6} {'CS':>6} {'Killing':>12}")
    for n in range(nmax + 1):
        for p in range(nmax + 1):
            row = [opalgebra.casimir_eigenvalue(w, (n, p)) for w in ("Cp", "Csu2", "Csu11", "CR", "CS")]
            killing = opalgebra.killing_casimir(sc, (n, p))
            print(
                f"{n:>3} {p:>3} {str(row[0]):>5} {str(row[1]):>8} {str(row[2]):>8} "
                f"{str(row[3]):>6} {str(row[4]):>6} {str(killing):>12}"
            )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
