"""3D iterative proportional fitting."""

import numpy as np
import pytest

from popsim.errors import ConvergenceError, FeasibilityError, InputError
from popsim.ipf import (MarginalSet, MigrationTensor, ipf_3d, marginal_residual,
                        read_marginals_csv, write_marginals_csv)

REGIONS = ("AT-1", "AT-2", "AT-3", "AT-4")
AGES = (0, 1, 2, 3, 4)


def random_feasible_instance(rng):
    """A positive off-diagonal tensor defines its own consistent marginals."""
    n, m = len(REGIONS), len(AGES)
    values = rng.random((n, n, m)) + 0.1
    truth = MigrationTensor(REGIONS, AGES, values)
    return truth, truth.marginals()


def test_fixed_point_returned_unchanged():
    rng = np.random.default_rng(3)
    truth, marginals = random_feasible_instance(rng)
    fitted = ipf_3d(truth, marginals, tol=1e-9, max_iter=10)
    assert np.allclose(fitted.values, truth.values, atol=1e-12)


def test_converges_from_flat_start():
    rng = np.random.default_rng(4)
    for _ in range(5):
        _, marginals = random_feasible_instance(rng)
        init = MigrationTensor(REGIONS, AGES)  # all ones off-diagonal
        fitted = ipf_3d(init, marginals, tol=1e-9, max_iter=1000)
        assert marginal_residual(fitted.values, marginals) <= 1e-9


def test_zeros_preserved():
    rng = np.random.default_rng(5)
    truth, marginals = random_feasible_instance(rng)
    init = MigrationTensor(REGIONS, AGES)
    init.values[0, 1, :] = 0.0
    # rebuild marginals from a truth with the same zeros so a solution exists
    truth.values[0, 1, :] = 0.0
    marginals = truth.marginals()
    fitted = ipf_3d(init, marginals, tol=1e-9, max_iter=2000)
    assert np.all(fitted.values[0, 1, :] == 0.0)
    idx = np.arange(len(REGIONS))
    assert np.all(fitted.values[idx, idx, :] == 0.0)


def test_inconsistent_grand_totals_rejected_before_iterating():
    rng = np.random.default_rng(6)
    _, marginals = random_feasible_instance(rng)
    marginals.od = marginals.od * 1.10  # 10% heavier grand total
    init = MigrationTensor(REGIONS, AGES)
    with pytest.raises(FeasibilityError):
        ipf_3d(init, marginals, tol=1e-9, max_iter=1000)


def test_nonconvergence_carries_residual():
    rng = np.random.default_rng(7)
    _, marginals = random_feasible_instance(rng)
    init = MigrationTensor(REGIONS, AGES)
    with pytest.raises(ConvergenceError) as exc:
        ipf_3d(init, marginals, tol=1e-15, max_iter=2)
    assert exc.value.residual > 0


def test_residual_non_increasing_across_sweeps():
    rng = np.random.default_rng(8)
    for _ in range(5):
        _, marginals = random_feasible_instance(rng)
        tensor = MigrationTensor(REGIONS, AGES)
        previous = marginal_residual(tensor.values, marginals)
        values = tensor.values
        for _ in range(30):
            cur = values.sum(axis=2)
            values = values * np.divide(marginals.od, cur, out=np.ones_like(cur),
                                        where=cur > 0)[:, :, None]
            cur = values.sum(axis=1)
            values = values * np.divide(marginals.emig_by_age, cur,
                                        out=np.ones_like(cur), where=cur > 0)[:, None, :]
            cur = values.sum(axis=0)
            values = values * np.divide(marginals.imm_by_age, cur,
                                        out=np.ones_like(cur), where=cur > 0)[None, :, :]
            residual = marginal_residual(values, marginals)
            assert residual <= previous + 1e-9 * max(1.0, previous)
            previous = residual


def test_marginal_shapes_validated():
    with pytest.raises(InputError):
        MarginalSet(regions=REGIONS, ages=AGES, od=np.ones((2, 2)),
                    emig_by_age=np.ones((4, 5)), imm_by_age=np.ones((4, 5)))


def test_tensor_and_marginals_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    truth, marginals = random_feasible_instance(rng)
    tensor_path = tmp_path / "tensor.csv"
    truth.to_csv(tensor_path)
    loaded = MigrationTensor.from_csv(tensor_path)
    assert loaded.regions == truth.regions
    assert np.allclose(loaded.values, truth.values)

    paths = [tmp_path / name for name in ("od.csv", "emig.csv", "imm.csv")]
    write_marginals_csv(marginals, *paths)
    loaded_marginals = read_marginals_csv(*paths)
    assert np.allclose(loaded_marginals.od, marginals.od)
    assert np.allclose(loaded_marginals.emig_by_age, marginals.emig_by_age)
    assert np.allclose(loaded_marginals.imm_by_age, marginals.imm_by_age)


def test_destination_shares_clamp_age():
    truth, _ = random_feasible_instance(np.random.default_rng(10))
    assert truth.age_position(99) == truth.age_position(AGES[-1]) == len(AGES) - 1
    assert truth.age_position(-3) == truth.age_position(AGES[0]) == 0
    top = truth.shares()[truth.position["AT-1"], truth.age_position(99)]
    assert top[0] == 0.0  # own region excluded
    assert top.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("ages", [(7,), AGES])
def test_shares_leave_the_weights_unchanged(ages):
    # with one age the (origin, age, destination) transpose is itself contiguous
    values = np.random.default_rng(11).random((len(REGIONS), len(REGIONS), len(ages)))
    tensor = MigrationTensor(REGIONS, ages, values)
    before = tensor.values.copy()
    shares, cumulative = tensor.shares(), tensor.cumulative_shares
    assert np.array_equal(tensor.values, before)
    assert np.array_equal(cumulative, shares.cumsum(axis=2))


def test_single_ages_check_names_missing_age():
    MigrationTensor(REGIONS, range(3, 8)).check_single_ages()
    with pytest.raises(InputError, match=r"t\.csv: no age 5;"):
        MigrationTensor(REGIONS, (3, 4, 6, 7)).check_single_ages("t.csv")
    with pytest.raises(InputError, match="no ages"):
        MigrationTensor(REGIONS, ()).check_single_ages()


def _write_tensor(path, *rows):
    path.write_text("origin,destination,age,value\n" + "".join(r + "\n" for r in rows))
    return path


def test_tensor_csv_rejects_negative_weight(tmp_path):
    path = _write_tensor(tmp_path / "t.csv", "AT-1,AT-2,0,1.0", "AT-2,AT-1,0,-0.5")
    with pytest.raises(InputError, match=r"t\.csv:3: .*negative weight"):
        MigrationTensor.from_csv(path)


def test_tensor_csv_rejects_duplicate_and_extra_column(tmp_path):
    path = _write_tensor(tmp_path / "dup.csv", "AT-1,AT-2,0,1.0", "AT-1,AT-2,0,2.0")
    with pytest.raises(InputError, match=r"dup\.csv:3: duplicate row for \(AT-1,AT-2,0\)"):
        MigrationTensor.from_csv(path)
    path = _write_tensor(tmp_path / "wide.csv", "AT-1,AT-2,0,1.0,9")
    with pytest.raises(InputError, match=r"wide\.csv:2: .*too many values to unpack"):
        MigrationTensor.from_csv(path)


def test_tensor_rejects_a_repeated_region():
    with pytest.raises(InputError, match="migration tensor lists region 'AT-1' twice"):
        MigrationTensor(["AT-1", "AT-1", "AT-2"], range(3))


def test_tensor_csv_names_line_of_malformed_region(tmp_path):
    path = _write_tensor(tmp_path / "t.csv", "AT-1,AT-2,0,1.0", "AT-1,AT-2-,1,1.0")
    with pytest.raises(InputError, match=r"t\.csv:3: .*malformed region code 'AT-2-'"):
        MigrationTensor.from_csv(path)


@pytest.mark.parametrize("bad", range(3))
def test_marginals_csv_names_line_of_malformed_region(tmp_path, bad):
    paths = [tmp_path / n for n in ("od.csv", "emig.csv", "imm.csv")]
    paths[0].write_text("origin,destination,value\nAT-1,AT-2,1.0\nAT-2,AT-1,1.0\n")
    paths[1].write_text("region,age,value\nAT-1,0,1.0\nAT-2,0,1.0\n")
    paths[2].write_text("region,age,value\nAT-1,0,1.0\nAT-2,0,1.0\n")
    paths[bad].write_text(paths[bad].read_text().replace("\nAT-2,", "\nAT-2-,"))
    with pytest.raises(InputError, match=rf"{paths[bad].name}:3: .*malformed region code 'AT-2-'"):
        read_marginals_csv(*paths)


@pytest.mark.parametrize("bad", range(3))
def test_marginals_csv_names_line_of_negative_value(tmp_path, bad):
    paths = [tmp_path / n for n in ("od.csv", "emig.csv", "imm.csv")]
    paths[0].write_text("origin,destination,value\nAT-1,AT-2,1.0\nAT-2,AT-1,1.0\n")
    paths[1].write_text("region,age,value\nAT-1,0,1.0\nAT-2,0,1.0\n")
    paths[2].write_text("region,age,value\nAT-1,0,1.0\nAT-2,0,1.0\n")
    paths[bad].write_text(paths[bad].read_text().replace(",1.0\n", ",-1.0\n", 2))
    # the first of two negative rows, at its line; not the file-less marginal check
    with pytest.raises(InputError, match=rf"{paths[bad].name}:2: bad row .*: negative value$"):
        read_marginals_csv(*paths)


def test_marginals_csv_rejects_duplicate_row(tmp_path):
    paths = [tmp_path / n for n in ("od.csv", "emig.csv", "imm.csv")]
    paths[0].write_text("origin,destination,value\nAT-1,AT-2,1.0\nAT-2,AT-1,1.0\n")
    paths[1].write_text("region,age,value\nAT-1,0,1.0\nAT-2,0,1.0\nAT-1,0,1.0\n")
    paths[2].write_text("region,age,value\nAT-1,0,1.0\nAT-2,0,1.0\n")
    with pytest.raises(InputError, match=r"emig\.csv:4: duplicate row for \(AT-1,0\)"):
        read_marginals_csv(*paths)
