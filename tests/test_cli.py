import json
import math
import typing

import pytest

from leastchange import (
    TypeSpec,
    ValueSet,
    attaining_matrices,
    attaining_patterns,
    cli,
    count_dags_by_edges,
    dags,
    enumeration,
    least_determinant,
    least_determinant_binary,
    tables,
)
from leastchange.cli import main
from leastchange.genfunc import series_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def route_tables(out):
    """(route, coefficients) of each table in ``count`` text output."""
    lines = out.splitlines()
    return [
        (header.split("route=")[1], coeffs.removeprefix("coeffs: "))
        for header, coeffs in zip(lines[::3], lines[1::3])
    ]


class TestCount:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "A", "--n", "1")
        assert code == 0
        assert "family=A n=1 m=1 i_max=0 route=enumeration" in out
        assert "coeffs: 1" in out
        assert "total: 1" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "C", "--n", "4", "--route", "gf",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["family", "n", "m", "i_max", "route", "coeffs", "total"]
        assert payload == {
            "family": "C",
            "n": 4,
            "m": 12,
            "i_max": 6,
            "route": "gf",
            "coeffs": [1, 12, 60, 152, 186, 108, 24],
            "total": 543,
        }

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "C", "--n", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["i,count", "0,1", "1,2"]

    def test_route_all_agreement(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "C", "--n", "3", "--route", "all")
        assert code == 0
        assert out.count("coeffs: 1 6 12 6") == 3
        for token in ("enumeration", "dag", "gf"):
            assert f"route={token}" in out

    def test_route_all_family_a_single_route(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "A", "--n", "2", "--route", "all")
        assert code == 0
        assert route_tables(out) == [("enumeration", "1 4 4"), ("gf", "1 4 4")]

    def test_invalid_route_for_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "count", "--family", "A", "--n", "3", "--route", "dag")
        assert exc.value.code == 2

    @pytest.mark.parametrize("family", ["A", "B"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_route_all_compares_enumeration_and_series(self, capsys, family, n):
        code, out, _ = run(capsys, "count", "--family", family, "--n", str(n), "--route", "all")
        assert code == 0
        (first, coeffs), (second, again) = route_tables(out)
        assert (first, second) == ("enumeration", "gf")
        assert coeffs == again

    def test_series_route_for_family_b_beyond_enumeration(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "B", "--n", "6", "--route", "gf")
        assert code == 0
        assert "total: 79331328" in out.splitlines()

    def test_route_all_beyond_every_reach_is_an_error(self, capsys):
        code, out, err = run(capsys, "count", "--family", "A", "--n", "25", "--route", "all")
        assert code == 2
        assert out == ""
        assert "1..24" in err

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "count", "--family", "Z", "--n", "3")
        assert exc.value.code == 2

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_is_usage_error(self, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "count", "--family", "A", "--n", "2", "--workers", workers)
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_workers_environment_variable_is_ignored(self, capsys, monkeypatch):
        argv = ("count", "--family", "C", "--n", "3", "--route", "gf")
        _, expected, _ = run(capsys, *argv)
        monkeypatch.setenv("LEASTCHANGE_WORKERS", "abc")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == expected

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        code, _, _ = run(
            capsys, "count", "--family", "B", "--n", "3", "--format", "json",
            "--out", str(path),
        )
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert json.loads(raw)["coeffs"] == [1, 6, 13, 10, 2]

    def test_deterministic_across_workers(self, capsys):
        _, first, _ = run(capsys, "count", "--family", "B", "--n", "3", "--workers", "1")
        _, second, _ = run(capsys, "count", "--family", "B", "--n", "3", "--workers", "2")
        assert first == second

    def test_route_all_beyond_enumeration_cap_uses_series_only(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "C", "--n", "7", "--route", "all")
        assert code == 0
        assert out.count("coeffs:") == 1
        assert "route=gf" in out

    def test_route_all_beyond_enumeration_cap_uses_census_and_series(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "C", "--n", "6", "--route", "all")
        assert code == 0
        headers = [l for l in out.splitlines() if l.startswith("family=")]
        assert [h.split("route=")[1] for h in headers] == ["dag", "gf"]
        coeffs = [l for l in out.splitlines() if l.startswith("coeffs:")]
        assert len(coeffs) == 2 and coeffs[0] == coeffs[1]
        assert "total: 3781503" in out

    def test_dimension_cap_reports_cleanly(self, capsys):
        code, _, err = run(capsys, "count", "--family", "A", "--n", "6")
        assert code == 2
        assert "error:" in err

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "table.txt"
        code, out, err = run(
            capsys, "count", "--family", "C", "--n", "3", "--out", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestCurve:
    def test_rows_and_boundary_note(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "curve", "--n", "2", "--step", "1/4", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "r,P_A,P_B,P_C"
        assert len(lines) == 4
        assert "chain" in out

    def test_failed_run_leaves_output_file_alone(self, capsys, tmp_path):
        kept = tmp_path / "kept.csv"
        kept.write_text("earlier curve\n")
        absent = tmp_path / "absent.csv"
        for path in (kept, absent):
            code, _, err = run(capsys, "curve", "--n", "6", "--out", str(path))
            assert code == 2
            assert "error:" in err
        assert kept.read_text() == "earlier curve\n"
        assert not absent.exists()

    def test_stdout_csv(self, capsys):
        code, out, err = run(capsys, "curve", "--n", "2", "--step", "1/4")
        assert code == 0
        assert out.startswith("r,P_A,P_B,P_C")
        assert "chain" in err

    @pytest.mark.parametrize("step", ["0", "1", "abc", "1/0"])
    def test_bad_step_is_usage_error(self, capsys, step):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "curve", "--n", "2", "--step", step)
        assert exc.value.code == 2
        assert "--step" in capsys.readouterr().err


class TestLeast:
    def test_discrete_literal(self, capsys):
        code, out, _ = run(
            capsys, "least", "--family", "C", "--n", "2",
            "--values", "0,1/2,2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["least_det"] == "0"
        assert payload["attaining"] == 2
        assert payload["by_nonzeros"] == {"2": 2}

    def test_interval_literal(self, capsys):
        code, out, _ = run(
            capsys, "least", "--family", "C", "--n", "2", "--values", "[0:2]",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["least_det"] == "1"
        assert payload["attaining"] == 3

    def test_weighted_literal_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "least", "--family", "C", "--n", "2", "--values", "0,1/2@1/2,2@1/2")
        assert exc.value.code == 2

    def test_interval_past_the_pattern_budget(self, capsys):
        # 2^30 patterns: the counts come from the table, not from a scan
        code, out, _ = run(
            capsys, "least", "--family", "C", "--n", "6", "--values", "[0:1]",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        census = count_dags_by_edges(6)
        assert payload["by_nonzeros"] == {str(i): c for i, c in enumerate(census.coeffs) if c}
        assert payload["attaining"] == payload["attaining_patterns"] == census.total
        assert payload["least_det"] == payload["least_det_binary"] == "1"

    @pytest.mark.parametrize(
        "family, n, ones_at_1, target",
        [("B", 12, 12 * 11, "0"), ("C", 24, 24 * 23, "1")],
    )
    def test_interval_at_the_series_reach(self, capsys, family, n, ones_at_1, target):
        # closed forms: E(1) = m for C and m - 1 for B; E(top) = n! for C
        code, out, _ = run(
            capsys, "least", "--family", family, "--n", str(n), "--values", "[0:1]",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        sizes = payload["by_nonzeros"]
        assert sizes["0"] == 1
        assert sizes["1"] == ones_at_1
        if family == "C":
            assert list(sizes.items())[-1] == (str(n * (n - 1) // 2), math.factorial(n))
        assert payload["attaining"] == payload["attaining_patterns"] == sum(sizes.values())
        assert payload["least_det"] == payload["least_det_binary"] == target

    def test_interval_past_the_series_reach(self, capsys):
        # the limit is named for least itself, not for a count route
        code, out, err = run(capsys, "least", "--family", "C", "--n", "25", "--values", "[0:1]")
        assert code == 2
        assert out == ""
        assert err == "error: least over an interval supports n = 1..24, got 25\n"

    def test_discrete_beyond_the_budget(self, capsys):
        code, out, err = run(capsys, "least", "--family", "C", "--n", "6", "--values", "0,1")
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_negative_first_entry_written_with_equals(self, capsys):
        code, out, _ = run(capsys, "least", "--family", "C", "--n", "2", "--values=-1,0,1")
        assert code == 0
        assert "least_det: 0" in out.splitlines()
        assert "attaining: 2" in out.splitlines()

    def test_value_set_annotation_resolves(self):
        hints = typing.get_type_hints(cli._value_set)
        assert hints == {"text": str, "return": ValueSet}

    def test_bad_literal_is_usage_error(self, capsys):
        cases = [
            ("1,2", "must contain 0"),
            ("0", "nonzero value"),
            ("0,1/0", "zero denominator"),
            ("[0:2:3]", "must look like [0:2]"),
            ("[0:2", "must look like [0:2]"),
        ]
        for values, message in cases:
            with pytest.raises(SystemExit) as exc:
                run(capsys, "least", "--family", "C", "--n", "2", "--values", values)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err


SCANNED = [
    (family, n) for family, n_max in (("A", 4), ("B", 5), ("C", 5)) for n in range(1, n_max + 1)
]


@pytest.mark.parametrize("family, n", SCANNED, ids=[f"{f}{n}" for f, n in SCANNED])
def test_interval_counts_equal_the_pattern_scan(capsys, family, n):
    # where the 2^m pertinence scan fits the budget, its members are the
    # classes the table counts, and least prints what the scan finds
    spec = TypeSpec(family, n)
    interval = ValueSet.continuous(0, 1)
    scan = attaining_matrices(spec, interval)
    table = series_table(spec)
    assert len(scan) == table.total
    assert scan.sizes() == {i: c for i, c in enumerate(table.coeffs) if c}

    argv = ("least", "--family", family, "--n", str(n), "--values", "[0:1]")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["least_det"] == str(least_determinant(spec, interval))
    assert payload["least_det_binary"] == str(least_determinant_binary(spec, interval))
    assert payload["attaining"] == len(scan)
    assert payload["attaining_patterns"] == len(attaining_patterns(spec, interval))
    assert payload["by_nonzeros"] == {str(i): c for i, c in scan.sizes().items()}
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [f"{key}: {value}" for key, value in payload.items()]


class TestVerify:
    def test_complement_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "complement")
        assert code == 0
        assert out.startswith("PASS")

    def test_inclusion_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "inclusion")
        assert code == 0
        assert out.count("PASS") == 4

    def test_witnesses_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "witnesses")
        assert code == 0
        assert "FAIL" not in out

    def test_acyclic_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "acyclic", "--n", "3")
        assert code == 0
        assert out.count("PASS") == 3

    def test_acyclic_suite_reaches_n5(self, capsys):
        # two planes over 2^20 counters, not a permanent per matrix
        code, out, _ = run(capsys, "verify", "acyclic", "--n", "5")
        assert code == 0
        assert out.count("PASS") == 5
        assert out.splitlines()[-1].endswith("1048576 matrices")

    def test_acyclic_suite_reads_the_batched_predicate(self, capsys, monkeypatch):
        real = enumeration.pertinent_bits

        def flipped(spec):
            # the last counter's verdict, bit 2^m - 1 of the plane
            return real(spec) ^ 1 << (1 << spec.m) - 1

        # the suite imports the predicate when it runs, so patch it at the source
        monkeypatch.setattr(enumeration, "pertinent_bits", flipped)
        code, out, _ = run(capsys, "verify", "acyclic", "--n", "3")
        assert code == 1
        assert "FAIL  permanent-1 vs acyclic n=3" in out

    def test_acyclic_suite_reads_the_census_peel(self, capsys, monkeypatch):
        real = dags.acyclic_bits

        def flipped(edges, n, full):
            # the last graph's verdict, the top bit of the plane
            return real(edges, n, full) ^ (full + 1) >> 1

        # the suite checks the census's kernel as well as the enumeration's
        monkeypatch.setattr(dags, "acyclic_bits", flipped)
        code, out, _ = run(capsys, "verify", "acyclic", "--n", "3")
        assert code == 1
        assert "FAIL  permanent-1 vs acyclic n=3" in out

    def test_acyclic_suite_reads_the_permanent_plane(self, capsys, monkeypatch):
        real = enumeration._row_dp

        def flipped(spec, offsets):
            # the all-ones counter, permanent >= 2, now reads pertinent
            return real(spec, offsets) ^ 1 << (1 << spec.m) - 1

        # the plane comes from the row DP that also counts the tables
        monkeypatch.setattr(enumeration, "_row_dp", flipped)
        code, out, _ = run(capsys, "verify", "acyclic", "--n", "3")
        assert code == 1
        assert "FAIL  permanent-1 vs acyclic n=3" in out

    def test_routes_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "routes", "--n", "4")
        assert code == 0
        assert out.count("PASS") == 12

    def test_routes_suite_covers_every_family(self, capsys):
        code, out, _ = run(capsys, "verify", "routes", "--n", "6")
        assert code == 0
        names = [line.split(None, 1)[1] for line in out.splitlines()]
        assert all(line.startswith("PASS") for line in out.splitlines())
        assert names == [
            f"routes agree {family} n={n}"
            for family, n_max in (("A", 5), ("B", 5), ("C", 6))
            for n in range(1, n_max + 1)
        ]

    def test_routes_suite_beyond_census_cap(self, capsys):
        code, out, err = run(capsys, "verify", "routes", "--n", "7")
        assert code == 2
        assert out == ""
        assert "DAG census" in err and "n <= 6" in err

    def test_acyclic_suite_beyond_enumeration_cap(self, capsys):
        code, out, err = run(capsys, "verify", "acyclic", "--n", "6")
        assert code == 2
        assert out == ""
        assert "n <= 5" in err

    def test_acyclic_bound_is_not_the_counting_reach(self, capsys, monkeypatch):
        built = []
        monkeypatch.setitem(tables.ROUTE_MAX_N, tables.ROUTE_ENUMERATION, 6)
        monkeypatch.setattr(enumeration, "_planes", lambda bits: built.append(bits))
        code, out, err = run(capsys, "verify", "acyclic", "--n", "6")
        assert code == 2
        assert out == ""
        assert "n <= 5" in err
        assert built == []

    @pytest.mark.parametrize("suite", ["routes", "acyclic"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_n_is_usage_error(self, capsys, suite, n):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", suite, "--n", n)
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_n_help_reads_both_bounds(self, capsys, monkeypatch):
        monkeypatch.setitem(tables.ROUTE_MAX_N, tables.ROUTE_DAG_CENSUS, 7)
        monkeypatch.setattr(cli, "ACYCLIC_MAX_N", 3)
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--help")
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "routes suite (default 5, at most 7)" in text
        assert "acyclic suite (default 4, at most 3)" in text

    def test_workers_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "routes", "--n", "2", "--workers", "2")
        assert exc.value.code == 2

    def test_oeis_suite_reports_known_total_mismatch(self, capsys):
        # the published family-A total at n=5 disagrees with its own row;
        # the suite must report that honestly and exit nonzero
        code, out, _ = run(capsys, "verify", "oeis")
        assert code == 1
        lines = out.splitlines()
        fails = [l for l in lines if l.startswith("FAIL")]
        assert len(fails) == 1
        assert "total A n=5" in fails[0]
        assert "enumerated 10363361" in fails[0]
        assert "published 10363661" in fails[0]
        assert sum(1 for l in lines if l.startswith("PASS")) == 9

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "everything")
        assert exc.value.code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "complement", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["pass"] is True
        assert set(payload[0]) == {"check", "pass", "detail"}
