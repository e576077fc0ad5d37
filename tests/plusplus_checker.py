"""Definition-level check of ``rule:plusplus-zero-dimensional``.

For every n <= N, ``check-plusplus -r Z/n`` prints a witness table with a
row (r, d) for each residue r.  The strong separation property asks that d
lie outside a maximal ideal M of ``Z/n`` exactly when r lies in M.  The
maximal ideals are read from the brute-force oracle
(``oracle.maximal_ideals`` over ``oracle.all_ideals``), as sets of residues,
never from ``rings.vset``, which the witness's own self-check uses.

Standard library only, so it runs under interpreters without pytest::

    python tests/plusplus_checker.py [N]

It prints a summary and exits 1 if any row disagrees.
"""

import contextlib
import io
import json
import pathlib
import sys


def witness_table(cli, n) -> list:
    """The rows of ``check-plusplus -r Z/n``, read from its machine report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--format", "machine", "check-plusplus", "-r", f"Z/{n}"])
    rec = json.loads(out.getvalue().splitlines()[1])
    if code != 0 or rec["provenance"] != "rule:plusplus-zero-dimensional":
        raise AssertionError(f"Z/{n}: exit {code}, provenance {rec['provenance']}")
    return rec["witness_table"]


def check(n_max) -> tuple:
    """(rows checked, disagreements) over every ``Z/n`` with 2 <= n <= n_max."""
    from prodideals import cli, oracle

    rows, disagreements = 0, []
    for n in range(2, n_max + 1):
        maximal = [m.parts[0] for m in oracle.maximal_ideals(oracle.all_ideals([n]))]
        table = witness_table(cli, n)
        if [row["r"] for row in table] != list(range(n)):
            disagreements.append((n, "rows are not r = 0, ..., n - 1"))
            continue
        for row in table:
            r, d = row["r"], row["d"]
            rows += 1
            if not 0 <= d < n or any((d in m) == (r in m) for m in maximal):
                disagreements.append((n, r, d))
    return rows, disagreements


def main(argv) -> int:
    n_max = int(argv[0]) if argv else 800
    rows, disagreements = check(n_max)
    for entry in disagreements:
        print("DISAGREE", *entry)
    print(f"Python {sys.version.split()[0]}: Z/n for n <= {n_max}: {rows} rows; "
          f"{len(disagreements)} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    raise SystemExit(main(sys.argv[1:]))
