"""Write one generated collection, and optionally its snapshot, to a directory.

    python3 bench/prepare.py --scale query --seed 3 --out DIR [--snapshot]

With ``--snapshot`` the index, co-occurrence and rules snapshots are written
by the program's own ``index`` and ``mine-rules`` subcommands, with default
settings, into ``DIR/snap`` and ``DIR/rules.tsv``. The benchmark runs this
in a separate process, so that the query workloads' peak memory covers only
loading and querying.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import collection  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", choices=sorted(collection.SCALES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--snapshot", action="store_true")
    args = parser.parse_args()

    paths = collection.write(
        collection.generate(args.seed, collection.SCALES[args.scale]), args.out)
    if args.snapshot:
        from affixgen import cli

        snap, rules = args.out / "snap", args.out / "rules.tsv"
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["index", "--corpus", str(paths["corpus.tsv"]), "--index-dir", str(snap)],
                         ["mine-rules", "--index-dir", str(snap), "--rules-file", str(rules)]):
                if cli.main(argv) != 0:
                    print(f"prepare: affixgen {argv[0]} failed", file=sys.stderr)
                    return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
