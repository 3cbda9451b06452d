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


def test_bench_layers_pairs_the_kth_process_of_each_side(monkeypatch):
    # compare() pairs the k-th parent process with the k-th change process,
    # which ran right after it, and reports the extremes of the pair ratios
    bench_layers = _load_script("bench_layers")
    parent = [1.0, 2.0, 4.0, 2.0, 1.0]
    change = [0.5, 1.5, 2.0, 2.2, 0.8]
    runs = {"parent": iter(parent + [1.0] * 5), "change": iter(change + [1.5] * 5)}

    def fake(src, index):
        return f"case {index}", next(runs[src.name])

    monkeypatch.setattr(bench_layers, "CASES", [None, None])
    monkeypatch.setattr(bench_layers, "_case_in_fresh_process", fake)
    cases = bench_layers.compare(Path("parent"), Path("change"))["cases"]
    first, second = cases["case 0"], cases["case 1"]
    assert (first["parent_procs"], first["change_procs"]) == (parent, change)
    assert first["change/parent"] == 1.5 / 2.0
    assert (first["pair_ratio_min"], first["pair_ratio_max"]) == (0.5, 1.1)
    assert first["pairs_straddle_1"] is True
    assert (second["pair_ratio_min"], second["pair_ratio_max"]) == (1.5, 1.5)
    assert second["pairs_straddle_1"] is False
