"""Set-up phase of `mixtrees mix`, run alone in a fresh interpreter.

Imports the CLI and makes the public calls `cmd_mix` makes before its
first sweep: the config, the dataset, the evaluation grid, the per-model
predictions and the system (truth) function over the grid.

    python3 perfbench/setup_child.py CONFIG
"""

import sys
from pathlib import Path

from mixtrees import cli

cfg = cli.ExperimentConfig(Path(sys.argv[1]))
data = cfg.build_dataset()
grid = cfg.eval_grid(data)
cfg.model_predictions(data, grid)
system, _ = cfg.system()
truth = [system(*row) for row in grid]
