import math
import tracemalloc

import numpy as np
import pytest

from etherdrift import fieldmomentum
from etherdrift.errors import DomainError, InputError
from etherdrift.fieldmomentum import (REFERENCE_GRID, SolenoidChargeGeometry,
                                      _momentum_on_grid,
                                      analytic_solenoid_momentum,
                                      convergence_study,
                                      integrate_field_momentum)
from etherdrift.units import c_cgs

REFERENCE = SolenoidChargeGeometry(a=1.0, B=100.0, d=3.0, q=1.0)


def test_geometry_validation():
    with pytest.raises(DomainError):
        SolenoidChargeGeometry(a=0.0, B=1.0, d=2.0, q=1.0)
    with pytest.raises(DomainError):
        SolenoidChargeGeometry(a=1.0, B=1.0, d=1.0, q=1.0)
    with pytest.raises(DomainError):
        SolenoidChargeGeometry(a=1.0, B=1.0, d=2.0, q=1.0, truncation_halflength=0.0)
    with pytest.raises(InputError):
        SolenoidChargeGeometry(a=1.0, B=1.0, d=2.0, q=1.0, grid=(4, 4))
    with pytest.raises(InputError):
        SolenoidChargeGeometry(a=1.0, B=1.0, d=2.0, q=1.0, grid=(4, 4, 1))
    with pytest.raises(InputError):
        SolenoidChargeGeometry(a=1.0, B=1.0, d=2.0, q=1.0, grid=(4.0, 4, 4))
    # an axis below 4 cannot be halved twice for the error estimate
    for grid in ((2, 2, 2), (3, 16, 128)):
        with pytest.raises(InputError, match=">= 4"):
            SolenoidChargeGeometry(a=1.0, B=1.0, d=2.0, q=1.0, grid=grid)
    assert SolenoidChargeGeometry(a=1.0, B=1.0, d=2.0, q=1.0, grid=(4, 4, 4)).grid == (4, 4, 4)
    nan = float("nan")
    for kwargs in ({"a": nan}, {"d": nan}, {"truncation_halflength": nan}):
        with pytest.raises(DomainError):
            SolenoidChargeGeometry(**dict(dict(a=1.0, B=1.0, d=2.0, q=1.0), **kwargs))


def test_default_truncation():
    assert REFERENCE.half_length == 50.0 * 3.0
    explicit = SolenoidChargeGeometry(a=1.0, B=100.0, d=3.0, q=1.0,
                                      truncation_halflength=777.0)
    assert explicit.half_length == 777.0


def test_analytic_momentum_frozen():
    p = analytic_solenoid_momentum(REFERENCE)
    # q B a^2/(2 d c_cgs), 50-digit arithmetic
    assert p[1] == pytest.approx(5.5594015866358675e-10, rel=1e-14)
    assert p[0] == 0.0 and p[2] == 0.0


def test_quadrature_matches_closed_form():
    result = integrate_field_momentum(REFERENCE)
    analytic = analytic_solenoid_momentum(REFERENCE)
    rel = float(np.linalg.norm(result.P_e - analytic)) / float(np.linalg.norm(analytic))
    assert rel <= 5e-3
    # momentum is azimuthal at the charge: +y, nothing radial or axial
    assert result.P_e[2] == 0.0
    assert result.P_e[0] == 0.0
    assert result.P_e[1] > 0.0


def test_quadrature_error_estimate_brackets_truth():
    result = integrate_field_momentum(REFERENCE)
    analytic = analytic_solenoid_momentum(REFERENCE)
    actual = float(np.linalg.norm(result.P_e - analytic))
    assert result.estimated_quadrature_error > 0.0
    assert actual <= 10.0 * result.estimated_quadrature_error
    assert result.estimated_quadrature_error <= 10.0 * actual


def test_preasymptotic_halvings_widen_the_estimate_instead_of_raising():
    # the refinement difference grows from the quarter to the half grid
    # here (the radial and axial midpoint errors cancel unevenly on the
    # coarse grids); the whole difference then stands as the estimate
    setup = dict(a=0.6480262676206137, B=12.248272878650218, d=2.0901708997646273,
                 q=5.787647120410555, truncation_halflength=200.0844256058074)
    result = integrate_field_momentum(SolenoidChargeGeometry(**setup, grid=(8, 16, 128)))
    half = integrate_field_momentum(SolenoidChargeGeometry(**setup, grid=(4, 8, 64))).P_e
    fine = integrate_field_momentum(SolenoidChargeGeometry(**setup, grid=(32, 64, 1024))).P_e
    e_fine = float(np.linalg.norm(result.P_e - half))
    assert result.estimated_quadrature_error >= e_fine
    assert float(np.linalg.norm(result.P_e - fine)) <= result.estimated_quadrature_error


def test_quadrature_linear_in_charge_and_field():
    base = integrate_field_momentum(REFERENCE).P_e
    doubled_q = integrate_field_momentum(
        SolenoidChargeGeometry(a=1.0, B=100.0, d=3.0, q=2.0)).P_e
    tripled_B = integrate_field_momentum(
        SolenoidChargeGeometry(a=1.0, B=300.0, d=3.0, q=1.0)).P_e
    assert doubled_q[1] == pytest.approx(2.0 * base[1], rel=1e-14)
    assert tripled_B[1] == pytest.approx(3.0 * base[1], rel=1e-14)


def test_quadrature_sign_flips_with_field():
    flipped = integrate_field_momentum(
        SolenoidChargeGeometry(a=1.0, B=-100.0, d=3.0, q=1.0)).P_e
    base = integrate_field_momentum(REFERENCE).P_e
    assert flipped[1] == pytest.approx(-base[1], rel=1e-14)


def test_convergence_study_monotone_and_order():
    rows = convergence_study(REFERENCE, 4)
    assert len(rows) == 4
    assert rows[-1].half_length_cm == REFERENCE.half_length
    assert rows[-1].grid == REFERENCE_GRID
    rels = [row.rel_error for row in rows]
    assert all(b < a for a, b in zip(rels, rels[1:]))
    # truncation error ~ 1/Lambda^2: slope of log(rel) vs log(Lambda) <= -1
    lams = [row.half_length_cm for row in rows]
    slope = np.polyfit(np.log(lams), np.log(rels), 1)[0]
    assert slope <= -1.0


def test_convergence_study_levels_validated():
    with pytest.raises(InputError):
        convergence_study(REFERENCE, 1)
    # 150 cm * 2**-1099 is 0: the coarsest levels would integrate over
    # |z| <= 0 and report rel_error 1
    with pytest.raises(DomainError, match="levels"):
        convergence_study(SolenoidChargeGeometry(a=1.0, B=100.0, d=3.0, q=1.0,
                                                 grid=(4, 4, 4)), 1100)


def _unfolded_midpoint_p_y(geom, nr, nphi, nz, half_length):
    """P_y from every node of the nr x nphi x nz midpoint grid, no symmetry used."""
    dr, dphi, dz = geom.a / nr, 2.0 * math.pi / nphi, 2.0 * half_length / nz
    r = ((np.arange(nr) + 0.5) * dr)[:, None, None]
    phi = ((np.arange(nphi) + 0.5) * dphi)[None, :, None]
    z = (-half_length + (np.arange(nz) + 0.5) * dz)[None, None, :]
    x_rel, y = r * np.cos(phi) - geom.d, r * np.sin(phi)
    s3 = (x_rel * x_rel + y * y + z * z) ** 1.5
    weight = r * dr * dphi * dz
    coeff = geom.q * geom.B / (4.0 * math.pi * c_cgs)
    return -coeff * np.sum(x_rel / s3 * weight)


@pytest.mark.parametrize("grid", [(4, 4, 4), (5, 7, 9), (8, 16, 128), (9, 17, 129)])
def test_folded_kernel_matches_unfolded_midpoint_sum(grid):
    # the mirror folds (phi -> 2 pi - phi, z -> -z) and the blocking change
    # only the order of the sum: odd axes carry the weight-1 middle node
    for geom in (REFERENCE, SolenoidChargeGeometry(a=0.7, B=-12.5, d=2.1, q=3.3,
                                                   truncation_halflength=40.0)):
        folded = _momentum_on_grid(geom, *grid, geom.half_length)
        unfolded = _unfolded_midpoint_p_y(geom, *grid, geom.half_length)
        assert folded[1] == pytest.approx(unfolded, rel=1e-13, abs=0.0)
        # y is odd under the phi mirror: P_x cancels in pairs exactly
        assert folded[0] == 0.0 and folded[2] == 0.0


def test_folded_kernel_blocks_the_axial_sum():
    # a whole-grid temporary of (32, 64, 2048) is 32 MiB; the blocked sum
    # keeps each temporary near 64 Ki doubles
    tracemalloc.start()
    try:
        _momentum_on_grid(REFERENCE, 32, 64, 2048, REFERENCE.half_length)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("block", [1, 3, 64])
def test_folded_kernel_any_block_size(monkeypatch, block):
    # blocks smaller than one disk node's axial row split that row: the
    # node's sum then spans several blocks
    monkeypatch.setattr(fieldmomentum, "_BLOCK", block)
    for grid in ((5, 7, 9), (8, 16, 128)):
        folded = _momentum_on_grid(REFERENCE, *grid, REFERENCE.half_length)
        unfolded = _unfolded_midpoint_p_y(REFERENCE, *grid, REFERENCE.half_length)
        assert folded[1] == pytest.approx(unfolded, rel=1e-13, abs=0.0)


def _standalone_rows(geom, levels):
    # each level on its own lattice, one kernel call per level
    nr, nphi, nz = geom.grid
    rows = []
    for k in range(levels):
        scale = 2.0 ** (k - (levels - 1))
        nz_k = max(2, round(nz * scale))
        rows.append((nz_k, _momentum_on_grid(geom, nr, nphi, nz_k, geom.half_length * scale)))
    return rows


@pytest.mark.parametrize("grid, levels, block", [
    ((8, 16, 128), 4, None),       # even nz: every level on one lattice
    ((5, 7, 129), 3, None),        # odd nz: levels of both parities
    ((8, 16, 100), 3, None),       # 25 / 50 / 100: odd first level
    ((8, 16, 100), 4, None),       # 100/8 rounds to 12: its own lattice
    ((4, 4, 4), 4, None),          # nz_k floored at 2
    ((9, 17, 1000), 4, 64),        # rows longer than a block
    ((4, 4, 2 ** 18 + 8), 3, None),  # nz > 2 _BLOCK: column blocks
])
def test_convergence_rows_match_standalone_kernel_bit_for_bit(monkeypatch, grid, levels,
                                                              block):
    if block is not None:
        monkeypatch.setattr(fieldmomentum, "_BLOCK", block)
    for geom in (SolenoidChargeGeometry(a=1.0, B=100.0, d=3.0, q=1.0, grid=grid),
                 SolenoidChargeGeometry(a=0.7, B=-12.5, d=2.1, q=3.3, grid=grid,
                                        truncation_halflength=40.0)):
        rows = convergence_study(geom, levels)
        for row, (nz_k, p) in zip(rows, _standalone_rows(geom, levels), strict=True):
            assert row.grid == (grid[0], grid[1], nz_k)
            assert row.P_e.tobytes() == p.tobytes()


def test_convergence_study_sums_a_shared_lattice_once(monkeypatch):
    calls = []
    axial_sums = fieldmomentum._axial_sums

    def counting(rho2, dz, odd, counts):
        calls.append(sorted(counts))
        return axial_sums(rho2, dz, odd, counts)

    monkeypatch.setattr(fieldmomentum, "_axial_sums", counting)
    geom = SolenoidChargeGeometry(a=1.0, B=100.0, d=3.0, q=1.0, grid=(32, 64, 2048))
    convergence_study(geom, 2)
    # the 1024-cell level's folded nodes are the first 512 of the 2048-cell one
    assert calls == [[512, 1024]]
    calls.clear()
    convergence_study(geom._replace(grid=(8, 16, 100)), 4)
    # 12 cells (100/8 rounded) and the odd 25 each have their own lattice
    assert sorted(calls) == [[6], [13], [25, 50]]


@pytest.mark.parametrize("field", [{"B": 0.0}, {"q": 0.0}, {"a": 1e-300}, {"d": 1e308}])
def test_convergence_study_zero_momentum_is_a_domain_error(field):
    geom = SolenoidChargeGeometry(**dict(dict(a=1.0, B=100.0, d=3.0, q=1.0), **field))
    with pytest.raises(DomainError, match="undefined for a zero momentum"):
        convergence_study(geom, 2)
