"""The statement tracer (``tests/run_paths.py``) still covers every command
path, and the statements no run reaches are the ones its table lists.

The run list names every experiment at its defaults, every bench task
through a config file, and every figure.  The trace runs in its own process
and fails on an unreached statement the table lacks, or on a table entry
that now runs or no longer exists.
"""
import subprocess
import sys
from pathlib import Path

from run_paths import commands

from qntl.cli.plotdata import FIGURES
from qntl.cli.runners import EXPERIMENTS


def test_run_list_names_every_experiment_and_figure(tmp_path):
    argvs = commands(tmp_path)
    from workloads import WORKLOADS  # on the path once the run list is built

    runs = [argv for argv in argvs if argv[0] == "run"]
    defaults = sorted(argv[1] for argv in runs if "--config" not in argv)
    assert defaults == sorted(EXPERIMENTS)
    configs = [argv for argv in runs if "--config" in argv]
    assert len(configs) == sum(len(w.tasks) for w in WORKLOADS.values())
    assert all(argv[argv.index("--config") + 1].startswith(str(tmp_path)) for argv in configs)
    assert sorted(argv[1] for argv in argvs if argv[0] == "plot") == sorted(FIGURES)
    assert all("--svg" in argv for argv in argvs if argv[0] == "plot")
    assert sum(argv[0] == "catalog" for argv in argvs) == 3


def test_unreached_statements_match_the_table():
    # A fresh interpreter, so every module is imported under the tracer.
    script = Path(__file__).with_name("run_paths.py")
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
