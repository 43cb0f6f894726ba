"""tools/route_outputs.py --compare on synthetic outputs: a moved value passes
within the sum of both lines' error bounds and fails beyond it."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "route_outputs.py"
_SPEC = importlib.util.spec_from_file_location("route_outputs", _PATH)
route_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(route_outputs)

ENUM = ("cp_abs_moment lam=1.8 atoms3: ConstantResult(value=833.5495345035941, "
        "method='cp_series/atoms_exact', error_bound=1.6e-07, "
        "diagnostics={'K': 20, 'per_k_method': 'atoms_exact'})")
SKELLAM = ("cp_abs_moment lam=1.8 rademacher: ConstantResult(value=2.0, "
           "method='cp_series/exact_walk', error_bound=1e-06, diagnostics={'K': 20})")


def _fourier(value):
    return (f"cp_abs_moment lam=1.8 atoms3: ConstantResult(value={value!r}, "
            "method='cp_series/fourier', error_bound=5e-05, "
            "diagnostics={'K': 20, 'per_k_method': 'fourier', 'fourier_panels': 30})")


def _compare(tmp_path, before, after):
    paths = [tmp_path / "before.txt", tmp_path / "after.txt"]
    for path, lines in zip(paths, (before, after)):
        path.write_text("\n".join(lines) + "\n")
    return route_outputs.compare(*map(str, paths))


@pytest.mark.parametrize("moved,code", [(1.5e-5, 0), (1e-3, 1)])
def test_route_move(tmp_path, capsys, moved, code):
    # 1.5e-5 is 94 times the enumeration's bound but within the sum of both
    after = _fourier(833.5495345035941 + moved)
    assert _compare(tmp_path, [SKELLAM, ENUM], [SKELLAM, after]) == code
    out = capsys.readouterr().out
    assert "added keys: diagnostics.fourier_panels" in out
    assert "route moved atoms_exact -> fourier" in out
    verdict = "within both bounds" if code == 0 else "OUTSIDE both bounds"
    assert verdict in out
    assert out.endswith(f"2 lines, 1 differ, {code} fail\n")


@pytest.mark.parametrize("value,code", [("2.0000015", 0), ("2.0000025", 1)])
def test_same_route_move(tmp_path, capsys, value, code):
    # bounds of 1e-6 on each side: 1.5e-6 lies within their sum, 2.5e-6 beyond it
    after = SKELLAM.replace("value=2.0", f"value={value}")
    assert _compare(tmp_path, [SKELLAM], [after]) == code
    assert capsys.readouterr().out.endswith(f"1 lines, 1 differ, {code} fail\n")


def test_diagnostics_only_move(tmp_path, capsys):
    # value and bound bit-identical, the series depth and its tail moved
    before = ("cp_abs_moment lam=0.5 uniform: ConstantResult(value=0.3, "
              "method='cp_series/fourier', error_bound=1e-10, "
              "diagnostics={'K': 17, 'tail_bound': 3e-11})")
    after = before.replace("'K': 17", "'K': 1").replace("3e-11", "6e-11")
    assert _compare(tmp_path, [before], [after]) == 0
    out = capsys.readouterr().out
    assert "value unchanged; largest relative change of the other numbers 0.94;" in out
    assert out.endswith("1 lines, 1 differ, 0 fail\n")


def test_value_move_reported_apart(tmp_path, capsys):
    # the value moves 7.5e-7 relative within both bounds, K by a tenth
    after = SKELLAM.replace("value=2.0", "value=2.0000015").replace("'K': 20", "'K': 22")
    assert _compare(tmp_path, [SKELLAM], [after]) == 0
    out = capsys.readouterr().out
    assert ("value's relative change 7.5e-07; largest relative change of the other "
            "numbers 0.091; value moved 0.75 of the sum of both error_bounds: "
            "within both bounds") in out
