# End-to-end command-line workflow in a temp directory: write a config file,
# estimate a crossing probability over a small intensity sweep, then reshape
# the result table into plot-ready series. Demonstrates the on-disk formats
# without touching the repository tree. Each subcommand prints the body it
# wrote (the file minus its timestamp line) and the file's path, named
# relative to the temp directory, so two runs print the same bytes.
#
# Run with `python3 demos/cli_workflow.py`.

import os
import pathlib
import tempfile

from perco import cli

CONFIG = """\
# crossing probability sweep for the constant-radius reference model
model.variant = boolean
model.d = 2
model.radius.kind = constant
model.radius.value = 0.5

event.kind = crossing
event.r = 0.8

run.intensities = 0.6 1.0 1.4
run.trials = 120
run.seed = 5
"""


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            pathlib.Path("sweep.cfg").write_text(CONFIG)

            rc = cli.main(["estimate", "sweep.cfg", "--out", "sweep.csv"])
            assert rc == 0
            rc = cli.main(["plot-data", "sweep.csv", "--out", "sweep-plot.csv"])
            assert rc == 0
            print("rerunning with the same seed reproduces the body byte for byte;")
            print("pass --seed to explore other draws")
        finally:
            os.chdir(home)
