import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True, scope="session")
def _child_processes_import_this_checkout():
    # pyproject's pythonpath puts src/ on sys.path of the test process only;
    # the CLI runs that tests start as child processes need it too
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield
