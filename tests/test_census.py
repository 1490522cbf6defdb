"""Census enumeration: clause tables, determinism, bounds."""

from __future__ import annotations

import hashlib

import pytest

from tritangle import BoundsTooLarge, census_csv, census_decomposition, classify, run_census
from tritangle import census, verdict


def rows_as_dict(kind, bound):
    return {(r.m, r.n): (r.branch, r.count) for r in run_census(kind, bound)}


def test_tautau_bound_seven():
    rows = rows_as_dict("tautau", 7)
    values = [-7, -5, -3, 3, 5, 7]
    assert len(rows) == len(values) ** 2
    assert rows[(3, 3)] == ("tautau (i)", "inf")
    assert rows[(-3, -3)] == ("tautau (i)", "inf")
    assert rows[(3, -3)] == ("tautau (ii)", "3")
    assert rows[(-3, 3)] == ("tautau (ii)", "3")
    assert rows[(5, 3)] == ("tautau (iii)", "1")
    assert rows[(7, -5)] == ("tautau (iii)", "1")


def test_taurho_clause_table():
    rows = rows_as_dict("taurho", 5)
    # tau slopes 1/3, 1/5 against torus parameters p in [2, 5]
    assert rows[(3, 2)] == ("taurho (i)", "inf")
    assert rows[(3, 3)] == ("taurho (ii)", "4")
    assert rows[(3, 5)] == ("taurho (ii)", "4")
    assert rows[(5, 3)] == ("taurho (iii)", "2")
    assert rows[(5, 2)] == ("taurho (iv)", "1")


def test_rhorho_branch_table():
    rows = rows_as_dict("rhorho", 3)
    assert rows[(0, 0)] == ("rhorho (otherwise)", "0")
    assert rows[(0, 2)] == ("rhorho (ii)", "1")
    assert rows[(3, 0)] == ("rhorho (ii)", "1")
    assert rows[(2, 3)] == ("rhorho (i)", "2")


def test_rows_match_reconstructed_decompositions():
    for kind, bound in (("tautau", 5), ("taurho", 4), ("rhorho", 3)):
        for row in run_census(kind, bound):
            verdict = classify(census_decomposition(kind, row.m, row.n))
            assert (row.branch, row.count) == (verdict.branch, str(verdict.annulus_count))


@pytest.mark.parametrize("kind, sides", [("tautau", 98), ("taurho", 49 + 98), ("rhorho", 99)])
def test_each_side_examined_once_per_table(kind, sides, monkeypatch):
    examined = []
    examine = census.examine

    def counted(descriptor):
        examined.append(descriptor)
        return examine(descriptor)

    monkeypatch.setattr(census, "examine", counted)
    run_census(kind, 99)
    assert len(examined) == sides
    assert len(set(examined)) == sides


@pytest.mark.parametrize("kind, sides", [("tautau", 0), ("taurho", 98), ("rhorho", 99)])
def test_good_annulus_once_per_side_per_table(kind, sides, monkeypatch):
    # a rho side's good annulus is one of its side facts
    asked = []
    side_facts = census.side_facts

    def counted(profile):
        if profile.kind == "rho":
            asked.append(profile)
        return side_facts(profile)

    monkeypatch.setattr(census, "side_facts", counted)
    run_census(kind, 99)
    assert len(asked) == sides
    assert len(set(asked)) == sides


@pytest.mark.parametrize("kind", ["tautau", "taurho", "rhorho"])
def test_every_row_matches_classify(kind):
    # rows come from the pair rules, never from a Verdict: check each against classify
    table = run_census(kind, 25)
    assert len(table) == {"tautau": 24 * 24, "taurho": 12 * 24, "rhorho": 25 * 25}[kind]
    for row in table:
        expected = classify(census_decomposition(kind, row.m, row.n))
        assert (row.branch, row.count) == (expected.branch, str(expected.annulus_count))


@pytest.mark.parametrize("kind", ["tautau", "taurho", "rhorho"])
def test_a_row_costs_one_rule_call(kind, monkeypatch):
    sides, rule = verdict.RULES[kind]
    clauses, calls = [], {"str": 0, "csv": 0, "new": 0}

    def counted_rule(a, b, special):
        clause = rule(a, b, special)
        clauses.append(clause)
        return clause

    def counter(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setitem(verdict.RULES, kind, (sides, counted_rule))
    monkeypatch.setattr(verdict.AnnulusCount, "__str__",
                        counter("str", verdict.AnnulusCount.__str__))
    monkeypatch.setattr(census.CensusRow, "csv", counter("csv", census.CensusRow.csv))
    monkeypatch.setattr(census.CensusRow, "__new__",
                        staticmethod(counter("new", census.CensusRow.__new__)))
    rows = run_census(kind, 25)
    census_csv(rows)
    assert len(clauses) == len(rows)
    assert all(type(clause) is verdict.Clause for clause in clauses)
    assert 0 < calls["str"] <= len({id(clause) for clause in clauses})
    assert (calls["csv"], calls["new"]) == (0, 0)


@pytest.mark.parametrize("kind", ["tautau", "taurho", "rhorho"])
def test_row_csv_is_its_census_csv_line(kind):
    rows = run_census(kind, 9)
    assert census_csv(rows).splitlines()[1:] == [row.csv() for row in rows]
    assert census_csv(row for row in rows) == census_csv(rows)  # any iterable of rows
    assert census.CensusRow(3, -3, "tautau (ii)", "3").csv() == "3,-3,tautau (ii),3"


def test_csv_deterministic_and_sorted():
    first = census_csv(run_census("tautau", 9))
    second = census_csv(run_census("tautau", 9))
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "m,n,branch,count"
    keys = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
    assert keys == sorted(keys)


def test_census_at_the_cap_is_pinned():
    # the three tables at bound 99, concatenated; any change to a row changes the digest
    text = "".join(census_csv(run_census(kind, 99)) for kind in ("tautau", "taurho", "rhorho"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "765ee63bfc37726661f4493aeab132800f6a05d6283415ec2a55da5eefcf159d")


def side_indices(kind, bound):
    """Each position's side indices up to a bound, as the module docstring states them."""
    odd = range(3, bound + 1, 2)
    tau = sorted([*odd, *(-m for m in odd)])
    rho = [0, *range(2, bound + 1)]
    return {"tautau": (tau, tau), "taurho": (odd, range(2, bound + 1)), "rhorho": (rho, rho)}[kind]


@pytest.mark.parametrize("bound", range(8))
@pytest.mark.parametrize("kind", ["tautau", "taurho", "rhorho"])
def test_small_tables_match_row_by_row(kind, bound):
    # the edges of a side's rows: no table (tautau and taurho below 3), a single row (rhorho
    # at 0 and 1), then a few rows per side
    firsts, seconds = side_indices(kind, bound)
    expected = []
    for m in firsts:
        for n in seconds:
            verdict = classify(census_decomposition(kind, m, n))
            expected.append(census.CensusRow(m, n, verdict.branch, str(verdict.annulus_count)))
    rows = run_census(kind, bound)
    assert rows == expected
    assert all(type(row) is census.CensusRow for row in rows)
    assert all(type(row.m) is int and type(row.n) is int for row in rows)


def test_empty_range_has_header_only():
    assert census_csv(run_census("tautau", 1)) == "m,n,branch,count\n"
    assert census_csv(iter(())) == "m,n,branch,count\n"


def test_bound_above_cap_rejected():
    with pytest.raises(BoundsTooLarge):
        run_census("tautau", 100)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        run_census("sigma", 5)
    # a kind is written whole up to 80 characters, else as its repr's length
    with pytest.raises(ValueError, match="^unknown census kind <200002 characters>$"):
        run_census("x" * 200_000, 5)


def test_census_decomposition_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown census kind 'sigma'"):
        census_decomposition("sigma", 3, 3)
    with pytest.raises(ValueError, match="^unknown census kind <200002 characters>$"):
        census_decomposition("x" * 200_000, 3, 3)
