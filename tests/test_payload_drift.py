import io
import json

from payload_drift import compare, main


def write_tree(root, payloads, csv=b"t,v\n0,1\n", grid_solve=None):
    for name, payload in payloads.items():
        d = root / name
        d.mkdir(parents=True)
        volatile = {"wall": len(name)}
        if grid_solve is not None:
            volatile["grid_solve"] = grid_solve
        (d / "report.json").write_text(json.dumps(
            {"payload": payload, "provenance_volatile": volatile}))
        (d / "table.csv").write_bytes(csv)
    return root


PAYLOAD = {"K_hat": 2.0, "trend": [1.0, 1.5, 2.0], "verdict": "evidence-yes",
           "counts": {"n": 3}}


def test_identical_trees_agree(tmp_path):
    old = write_tree(tmp_path / "old", {"a": PAYLOAD, "b": PAYLOAD})
    new = write_tree(tmp_path / "new", {"a": PAYLOAD, "b": dict(PAYLOAD)})
    out = io.StringIO()
    assert compare(str(old), str(new), out)
    assert out.getvalue().startswith("2 report pairs, 10 numbers, 0 moved")


def test_drift_per_path_strings_and_structure(tmp_path):
    moved = dict(PAYLOAD, trend=[1.0, 1.5 + 3e-12, 2.0 - 1e-6],
                 verdict="inconclusive", extra=None)
    del moved["counts"]
    old = write_tree(tmp_path / "old", {"a": PAYLOAD, "gone": PAYLOAD})
    new = write_tree(tmp_path / "new", {"a": moved}, csv=b"t,v\n0,2\n")
    out = io.StringIO()
    assert not compare(str(old), str(new), out)
    lines = out.getvalue().splitlines()
    row = next(line for line in lines if line.startswith("a:payload.trend[]"))
    assert row.split()[1:] == ["2/3", "1.00e-06", "5.00e-07"]
    assert "changed a:payload.verdict: 'evidence-yes' -> 'inconclusive'" in lines
    assert "changed a:payload.counts: {'n': 3} -> '<absent>'" in lines
    assert "changed a:payload.extra: '<absent>' -> None" in lines
    assert any("gone/report.json" in line and "only in old" in line
               for line in lines)
    assert "csv differs: a/table.csv" in lines


SOLVE = {"preconditioner": "sine-transform Laplacian", "start_residual": 0.02,
         "iterations": 14, "rel_residual": 3e-13,
         "residual_tail": [4e-11, 3e-13], "assemble_s": 0.01, "solve_s": 0.05,
         "circles_s": 0.02}


def test_solver_record_compared_without_timings(tmp_path, capsys):
    old = write_tree(tmp_path / "old", {"a": PAYLOAD}, grid_solve=SOLVE)
    slower = write_tree(tmp_path / "slower", {"a": PAYLOAD},
                        grid_solve=dict(SOLVE, assemble_s=0.02, solve_s=0.1))
    assert main([str(old), str(slower)]) == 0
    assert "1 report pairs, 10 numbers, 0 moved" in capsys.readouterr().out
    # the payload agrees; only the iteration count moved
    moved = write_tree(tmp_path / "moved", {"a": PAYLOAD},
                       grid_solve=dict(SOLVE, iterations=15))
    assert main([str(old), str(moved)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("1 report pairs, 10 numbers, 1 moved")
    row = next(line for line in lines if line.startswith("a:grid_solve."))
    assert row.split() == ["a:grid_solve.iterations", "1/1", "1.00e+00",
                           "6.67e-02"]
