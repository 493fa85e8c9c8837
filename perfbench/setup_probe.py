"""One set-up step of a benchmark run, timed from outside by its wall time.

Usage: python3 perfbench/setup_probe.py import|data SEED

"import" imports faircredit.cli. "data" also loads, preprocesses and splits
the bundled dataset through the public dataset functions, as fit and
compare do before their first model step.
"""

import sys

import faircredit.cli  # noqa: F401  (the import is what is being timed)
from faircredit.dataset import SplitSpec, load_csv, preprocess, split

DATA_PATH = "data/german_synthetic.csv"
TRAIN_COUNT = 800


def main(argv):
    mode, seed = argv[0], int(argv[1])
    if mode == "data":
        train, test = split(preprocess(load_csv(DATA_PATH)), SplitSpec(TRAIN_COUNT, seed))
        if len(train) != TRAIN_COUNT or len(test) < 1:
            print(f"unexpected split sizes {len(train)}/{len(test)}", file=sys.stderr)
            return 1
    elif mode != "import":
        print(f"unknown set-up mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
