import numpy as np
import pytest

from mumeb.cli import main
from mumeb.construct import family_cd, family_ckd_mols
from mumeb.mols import (LatinSquare, LatinViolation, MolsParseError, Net,
                        NetViolation, OrthogonalityViolation, best_mols,
                        format_mols, fourier_hadamard, import_mols,
                        mols_macneish, mols_prime_power, mubs_from_net,
                        net_from_mols, parse_mols, save_mols, validate_mols)
from oracles import mubs_from_net_columns


def test_latin_square_validation_messages():
    LatinSquare([[0, 1], [1, 0]])
    with pytest.raises(LatinViolation, match=r"row 0 repeats symbol 0 at columns 0 and 1"):
        LatinSquare([[0, 0], [1, 1]])
    with pytest.raises(LatinViolation, match=r"column 0 repeats symbol 0 at rows 0 and 1"):
        LatinSquare([[0, 1], [0, 1]])
    with pytest.raises(LatinViolation, match=r"cell \(0,1\)"):
        LatinSquare([[0, 7], [1, 0]])
    with pytest.raises(LatinViolation, match="not square"):
        LatinSquare([[0, 1]])
    # the first violation in scan order is named, with its exact text: rows
    # 1 and 2 both repeat a symbol
    with pytest.raises(LatinViolation) as info:
        LatinSquare([[0, 1, 2], [1, 1, 0], [2, 0, 0]])
    assert str(info.value) == "row 1 repeats symbol 1 at columns 0 and 1"
    # rows are permutations; row-major order meets the column-2 repeat first
    # (cell (1,2)), column-major order the column-0 one, which is named
    with pytest.raises(LatinViolation) as info:
        LatinSquare([[0, 1, 2], [1, 0, 2], [0, 2, 1]])
    assert str(info.value) == "column 0 repeats symbol 0 at rows 0 and 2"


@pytest.mark.parametrize("x", [2, 3, 4, 5, 7, 8, 9])
def test_prime_power_sets_are_complete_and_orthogonal(x):
    squares = mols_prime_power(x)
    assert len(squares) == x - 1
    for i in range(len(squares)):
        for j in range(len(squares)):
            if i != j:
                validate_mols([squares[i], squares[j]])
            else:
                with pytest.raises(OrthogonalityViolation):
                    validate_mols([squares[i], squares[j]])
    validate_mols(squares)


def test_prime_power_rejects_composites():
    with pytest.raises(ValueError):
        mols_prime_power(6)
    with pytest.raises(ValueError):
        mols_prime_power(12)


def test_validate_mols_against_pair_counting_oracle():
    a, b = mols_prime_power(3)
    pairs = {(a.cells[i][j], b.cells[i][j]) for i in range(3) for j in range(3)}
    assert len(pairs) == 9 and validate_mols([a, b]) == [a, b]
    pairs_self = {(a.cells[i][j], a.cells[i][j]) for i in range(3) for j in range(3)}
    assert len(pairs_self) == 3
    with pytest.raises(OrthogonalityViolation):
        validate_mols([a, a])
    with pytest.raises(ValueError):
        validate_mols([a, mols_prime_power(4)[0]])


def test_validate_mols_reports_cells():
    a, b = mols_prime_power(3)
    with pytest.raises(OrthogonalityViolation, match=r"squares 0 and 2 repeat pair"):
        validate_mols([a, b, a])
    c = LatinSquare([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    d = LatinSquare([[0, 2, 1], [1, 0, 2], [2, 1, 0]])
    # several clashing pairs: the first pair of squares in order is named,
    # and within it the first repeat in row-major order, with its exact text
    # (column-major order would meet (1, 2) first in [c, d])
    for squares, message in [
            ([a, b, a, b], "squares 0 and 2 repeat pair (1, 1) at cells (0, 1) and (1, 0)"),
            ([a, b, c], "squares 1 and 2 repeat pair (2, 2) at cells (0, 2) and (1, 0)"),
            ([c, d], "squares 0 and 1 repeat pair (2, 1) at cells (0, 2) and (1, 0)")]:
        with pytest.raises(OrthogonalityViolation) as info:
            validate_mols(squares)
        assert str(info.value) == message


def test_macneish_products():
    assert len(best_mols(6)) == 1
    assert len(best_mols(12)) == 2
    assert len(best_mols(9)) == 8
    prod = mols_macneish(mols_prime_power(4), mols_prime_power(3))
    assert len(prod) == 2
    assert prod[0].order == 12
    validate_mols(prod)
    # the product cell encodes the factor symbols as s1 * x2 + s2
    l1, l2 = mols_prime_power(4)[0], mols_prime_power(3)[0]
    got = mols_macneish([l1], [l2])[0]
    for i1 in range(4):
        for i2 in range(3):
            for j1 in range(4):
                for j2 in range(3):
                    assert got.cells[i1 * 3 + i2][j1 * 3 + j2] == \
                        l1.cells[i1][j1] * 3 + l2.cells[i2][j2]
    with pytest.raises(ValueError):
        best_mols(1)


@pytest.mark.parametrize("x", [2, 3, 4, 5, 7, 8])
def test_net_axioms_rechecked_with_bit_arithmetic(x):
    squares = best_mols(x)
    net = net_from_mols(squares)
    assert net.n == len(squares) + 2 and net.x == x
    mats = [(row == np.arange(x)[:, None]).astype(int) for row in net.lines]
    for m in mats:
        assert (m.sum(axis=1) == x).all()          # weight x
        assert (m @ m.T == x * np.eye(x)).all()    # disjoint inside a block
    for b1 in range(net.n):
        for b2 in range(b1 + 1, net.n):
            assert (mats[b1] @ mats[b2].T == 1).all()  # meet in one point


def test_net_without_squares():
    net = net_from_mols([], order=2)
    assert net.n == 2 and net.x == 2
    with pytest.raises(ValueError):
        net_from_mols([])
    with pytest.raises(ValueError):
        net_from_mols(mols_prime_power(3), order=4)


def test_net_violations_are_reported():
    rows, cols = [0, 0, 1, 1], [0, 1, 0, 1]  # points 0..3 = (i, j) row-major
    net = Net([rows, cols])
    assert (net.n, net.x) == (2, 2)
    # int8 labels of order 12 would overflow in lines[b1] * x + lines[b2]
    assert Net(net_from_mols(best_mols(12)).lines.astype(np.int8)).n == 4
    with pytest.raises(NetViolation) as info:
        Net([rows, rows])
    assert str(info.value) == "blocks 0:0 and 1:0 meet in 2 points, want 1"
    # the first bad pair of blocks is named, and in it the first line pair
    with pytest.raises(NetViolation) as info:
        Net([rows, cols, [0, 1, 1, 0], [0, 1, 0, 1]])
    assert str(info.value) == "blocks 1:0 and 3:0 meet in 2 points, want 1"
    with pytest.raises(NetViolation) as info:
        Net([rows, cols, [1, 1, 0, 0]])
    assert str(info.value) == "blocks 0:0 and 2:0 meet in 0 points, want 1"
    # within the pair, line 0 of row 0 is fine and (0, 1) is the first clash
    with pytest.raises(NetViolation) as info:
        Net([[0, 0, 0, 1, 1, 1, 2, 2, 2], [0, 1, 1, 1, 0, 2, 2, 2, 0]])
    assert str(info.value) == "blocks 0:0 and 1:1 meet in 2 points, want 1"
    with pytest.raises(NetViolation) as info:
        Net([rows, [0, 0, 0, 1]])
    assert str(info.value) == "block 1 has a vector of weight 3"
    with pytest.raises(NetViolation, match="expected"):
        Net([[0, 0, 1], [0, 1, 0]])  # 3 points is not x^2
    with pytest.raises(NetViolation, match="expected"):
        Net([0, 0, 1, 1])  # one dimension
    with pytest.raises(NetViolation, match="expected"):
        Net([[0.0, 0.0, 1.0, 1.0]])  # not integer labels
    with pytest.raises(NetViolation, match=r"expected line labels in 0\.\.1, got 0\.\.2"):
        Net([rows, [0, 1, 0, 2]])
    with pytest.raises(NetViolation, match=r"expected line labels in 0\.\.1, got -1\.\.1"):
        Net([rows, [0, 1, -1, 1]])


@pytest.mark.parametrize("x", [2, 3, 5, 8, 12, 26])
def test_fourier_hadamard(x):
    # mubs_from_net relies on a generalized Hadamard matrix without checking
    h = fourier_hadamard(x)
    assert h.shape == (x, x)
    assert np.abs(np.abs(h) - 1).max() <= 1e-12
    assert np.abs(h @ h.conj().T - x * np.eye(x)).max() <= 1e-9


@pytest.mark.parametrize("k", [4, 9, 16, 25])
def test_mubs_from_net_are_unbiased(k):
    x = int(round(np.sqrt(k)))
    net = net_from_mols(best_mols(x))
    mubs = mubs_from_net(net)
    assert len(mubs) == x + 1
    for basis in mubs:
        gram = basis.conj().T @ basis
        assert np.abs(gram - np.eye(k)).max() < 1e-9
    for i in range(len(mubs)):
        for j in range(i + 1, len(mubs)):
            overlaps = np.abs(mubs[i].conj().T @ mubs[j])
            assert np.abs(overlaps - 1 / x).max() < 1e-9


@pytest.mark.parametrize("x", [2, 3, 4, 5, 7, 8, 9, 12])
def test_mubs_from_net_is_bit_equal_to_the_column_loop(x):
    net = net_from_mols(best_mols(x))
    got, want = mubs_from_net(net), mubs_from_net_columns(net)
    assert len(got) == len(want) == net.n
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d,k", [(7, 9), (5, 16), (3, 64)])
def test_mols_generators_are_bit_equal_to_the_column_loop(d, k):
    x = int(round(np.sqrt(k)))
    fam = family_ckd_mols(d, k)
    mubs = mubs_from_net_columns(net_from_mols(best_mols(x)))
    base = family_cd(d).generators
    assert fam.n_bases == min(len(mubs), len(base))
    for (_, gen), g, (_, u) in zip(fam.generators, mubs, base):
        assert gen.tobytes() == np.kron(g, u).tobytes()


def test_file_round_trip(tmp_path):
    squares = best_mols(4)
    path = tmp_path / "m4.txt"
    save_mols(squares, path)
    again = import_mols(path)
    assert again == squares
    assert parse_mols(format_mols(squares)) == squares


def test_format_mols_round_trips_or_refuses(tmp_path):
    # every set format_mols writes parses back; an empty set has no valid file
    for x in (2, 3, 5, 6):
        for w in range(1, len(best_mols(x)) + 1):
            squares = best_mols(x)[:w]
            assert parse_mols(format_mols(squares)) == squares
    with pytest.raises(ValueError):
        format_mols([])
    with pytest.raises(ValueError):
        save_mols([], tmp_path / "empty.txt")


def test_parse_errors():
    with pytest.raises(MolsParseError, match="empty"):
        parse_mols("\n\n")
    with pytest.raises(MolsParseError, match="header"):
        parse_mols("squares here\n")
    with pytest.raises(MolsParseError, match="header"):
        parse_mols("3\n")
    with pytest.raises(MolsParseError, match=r"square 0 row 1: expected 3 symbols, got 2"):
        parse_mols("3 1\n0 1 2\n1 2\n2 0 1\n")
    with pytest.raises(MolsParseError, match="non-integer"):
        parse_mols("2 1\n0 1\n1 x\n")
    with pytest.raises(MolsParseError, match="unexpected end"):
        parse_mols("2 1\n0 1\n")
    with pytest.raises(MolsParseError, match="trailing"):
        parse_mols("2 1\n0 1\n1 0\n\nleftover\n")


def test_import_validates(tmp_path):
    bad_latin = tmp_path / "bad_latin.txt"
    bad_latin.write_text("2 1\n0 0\n1 1\n")
    with pytest.raises(LatinViolation, match="row 0"):
        import_mols(bad_latin)
    dup = tmp_path / "dup.txt"
    dup.write_text("3 2\n0 1 2\n1 2 0\n2 0 1\n\n0 1 2\n1 2 0\n2 0 1\n")
    with pytest.raises(OrthogonalityViolation, match="squares 0 and 1"):
        import_mols(dup)


@pytest.mark.parametrize("argv", [["mols", "check", "{path}"],
                                  ["construct", "--d", "3", "--k", "9", "--variant", "mols",
                                   "--mols-file", "{path}", "--out", "{out}"],
                                  ["bound", "--d", "9", "--k", "9", "--mols-file", "{path}"]],
                         ids=["mols-check", "construct", "bound"])
def test_squares_file_that_is_not_utf8_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"3 1\n0 1 2\n1 \xff 0\n2 0 1\n")
    with pytest.raises(MolsParseError, match="not UTF-8 text: 'utf-8' codec can't decode byte 0xff"):
        import_mols(path)
    args = [a.format(path=path, out=tmp_path / "out.json") for a in argv]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("input error: not UTF-8 text")
