"""Planted defects that a verdict must catch.

Each row is a command line, a monkeypatch that plants one defect in the
program, and the exit code the verdict must then give: 1, the verdict
failed.  One runner calls cli.main in-process.  The sphere-map rows also
name the check that fails, the equivariance residual (bound 1e-9).
"""

import dataclasses
import json

import numpy as np
import pytest

from tverberg import complexes as cx
from tverberg import eqmaps as eq
from tverberg import numbercert as nc
from tverberg import plmaps as pl
from tverberg.cli import main


def first_ball(center):
    return center


def last_ball(center):
    """The last center of the orbit's listing: l on the last k columns."""
    return center[:, ::-1]


def annulus(ball):
    """The bump scaled by 0.9 in the outer annulus (d > R/2) of one ball of each step.

    It moves no zero and changes no local degree, so only an equivariance
    check that reaches that ball sees it."""
    def plant(monkeypatch):
        balls = eq._balls

        def planted(node, X, dmin=None):
            found = balls(node, X, dmin)
            if found is None:
                return None
            sel, rho, C = found
            outer = np.all(C == ball(node.center), axis=(1, 2)) & (
                eq._frob(X[sel] - C) > node.radius / 2.0)
            return sel, np.where(outer, 0.9 * rho, rho), C

        monkeypatch.setattr(eq, "_balls", planted)
    return plant


def flip_last_ball(monkeypatch):
    """The first k = 1 step runs the other sign's formula inside its last ball.

    The step keeps its zero there, and its first center, where the local
    degree is read, keeps its sign."""
    build, homotopy, target = eq.build_from_plan, eq._homotopy, []

    def built(plan):
        layer, ledger = build(plan)
        target.append(next(node for node in layer.nodes if node.k == 1))
        return layer, ledger

    def planted(layer, X, t, normalize=False, dmin=None):
        Y = homotopy(layer, X, t, normalize, dmin)
        node = target[0]
        if node not in layer.nodes:
            return Y
        found = eq._balls(node, X)
        rows = [] if found is None else found[0][np.all(found[2] == last_ball(node.center),
                                                        axis=(1, 2))]
        if len(rows):
            flipped = eq.MapLayer(layer.r, (dataclasses.replace(node, sign=-node.sign),))
            ts = np.broadcast_to(np.asarray(t, dtype=float), len(X))[rows]
            Y[rows] = homotopy(flipped, X[rows], ts, normalize or node is not layer.nodes[-1])
        return Y

    monkeypatch.setattr(eq, "build_from_plan", built)
    monkeypatch.setattr(eq, "_homotopy", planted)


def hide_first_meeting_pair(monkeypatch):
    """_hulls_meet calls the first face pair whose hulls meet disjoint."""
    meet, hidden = pl._hulls_meet, []

    def planted(P, Q):
        found = meet(P, Q)
        if found and not hidden:
            hidden.append((P, Q))
            return False
        return found

    monkeypatch.setattr(pl, "_hulls_meet", planted)


def coefficient_off_by_one(monkeypatch):
    certificate = nc.bezout_certificate

    def planted(r):
        cert = certificate(r)
        return nc.BezoutCertificate(cert.r, (cert.coeffs[0] + 1,) + cert.coeffs[1:])

    monkeypatch.setattr(nc, "bezout_certificate", planted)


def cell_term_dropped(monkeypatch):
    """skeleton_cells_by_dim loses the term of its top dimension."""
    cells = cx.skeleton_cells_by_dim

    def planted(N, k, r):
        found = cells(N, k, r)
        return {dim: count for dim, count in found.items() if dim != max(found)}

    monkeypatch.setattr(cx, "skeleton_cells_by_dim", planted)


def verify(r):
    return ["eqmap", "verify", "--r", str(r), "--plan", "auto", "--samples", "2000", "--seed", "1"]


# A map of the 1-skeleton of the 4-simplex into the plane (vertices on a
# convex pentagon) in which five pairs of disjoint edges cross.
PENTAGON = ({"num_vertices": 5, "maximal_faces": [[a, b] for a in range(5) for b in range(a + 1, 5)]},
            {"d": 2, "coords": {"0": ["0", "0"], "1": ["4", "0"], "2": ["5", "3"],
                                "3": ["2", "5"], "4": ["-1", "3"]}})

ROWS = [
    *[pytest.param(verify(r), annulus(first_ball), "equivariance", id=f"annulus-r{r}")
      for r in (6, 10, 14, 15)],
    *[pytest.param(verify(r), annulus(last_ball), "equivariance", id=f"annulus-last-ball-r{r}")
      for r in (6, 10, 14)],
    *[pytest.param(verify(r), flip_last_ball, "equivariance", id=f"sign-flip-last-ball-r{r}")
      for r in (6, 10, 14)],
    pytest.param(["check", "--r", "2"], hide_first_meeting_pair, None, id="check-hidden-pair"),
    pytest.param(["cert", "--r", "10"], coefficient_off_by_one, None, id="cert-coefficient"),
    pytest.param(["delprod", "--N", "9", "--k", "2", "--r", "3"], cell_term_dropped, None,
                 id="delprod-cell-term"),
]


@pytest.mark.parametrize("argv, plant, failing", ROWS)
def test_planted_defect_fails_the_verdict(argv, plant, failing, monkeypatch, capsys, tmp_path):
    if argv[0] == "check":
        for name, obj in zip(("complex", "map"), PENTAGON):
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
            argv = argv + [f"--{name}", str(tmp_path / f"{name}.json")]
    plant(monkeypatch)
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["flags"]["pass"] is False
    if failing == "equivariance":
        out = report["outputs"]
        assert out["equivariance_max_residual"] >= 1e-9
        # the other checks still pass: only the equivariance check sees the defect
        assert out["homotopy_zero_residual"] < 1e-9 and out["spurious_zero_min"] > 1e-3
        assert all(rep["matches_ledger"] for rep in out["local_degrees"])
