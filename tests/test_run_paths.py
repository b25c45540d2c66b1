"""The run list of the statement tracer (``tests/run_paths.py``) still covers
every command path.

The trace itself runs outside the suite, so the tier-1 suite checks only the
list: every experiment at its defaults, every bench task through a config
file, and every figure.
"""
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
