"""Time what one ``magnetdml train`` invocation pays before its first iteration.

Usage: python3 setup_probe.py <src dir> <config>

Imports the package as the command-line entry point does, parses the
config, loads the dataset CSV and splits it, then prints the seconds taken.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import magnetdml.cli  # noqa: E402  (the import is part of what is timed)
from magnetdml.config import parse_config  # noqa: E402
from magnetdml.data import load_dataset, split  # noqa: E402

config = parse_config(sys.argv[2])
split(load_dataset(config.dataset), config.test_fraction, seed=config.seed)
print(time.perf_counter() - start)
