import importlib.util
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [["--parent", str(ROOT)], ["--src", str(ROOT)]])
def test_bench_layers_refuses_a_directory_without_the_package(argv, capsys):
    # a checkout root is not the directory the package is imported from;
    # the refusal comes before any case starts a process
    bench_layers = _load_script("bench_layers")
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        bench_layers.main(argv)
    assert time.perf_counter() - start < 0.5
    assert exc.value.code == 2
    assert "cycseq/__init__.py" in capsys.readouterr().err
