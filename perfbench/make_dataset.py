"""Write a ``tokyo_like`` dataset file for the benchmark.

Run in its own process so that generating the city does not count
towards the serving process's peak RSS::

    python3 perfbench/make_dataset.py --scale 4 --out city.json
"""

from __future__ import annotations

import argparse

from repro.datasets.presets import tokyo_like
from repro.graph.io import save_dataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    dataset = tokyo_like(scale=args.scale)
    save_dataset(args.out, dataset.network, dataset.forest)


if __name__ == "__main__":
    main()
