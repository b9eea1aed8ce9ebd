"""The command line interface: verbs, formats, exit codes."""

import ast
import concurrent.futures
import io
import json
import os
import random
import resource
import shlex
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import emseg
from emseg import cli, count
from emseg.cli import (
    EXIT_INTERNAL, EXIT_INVALID, EXIT_LIMITS, EXIT_OK, run,
)

THREE_ROW = "[4,-1;2;+][3,2;1;+][4,4;0;-]"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


class TestParseRender:
    def test_round_trip(self):
        code, out, _ = invoke("parse", "--dsl", THREE_ROW, "--format", "dsl")
        assert code == EXIT_OK and out.strip() == THREE_ROW
        code, out, _ = invoke("render", "--dsl", out.strip())
        assert code == EXIT_OK and out.strip() == THREE_ROW

    def test_json_output(self):
        code, out, _ = invoke("parse", "--dsl", "[1,0;0;+]")
        assert code == EXIT_OK
        assert json.loads(out)["rows"] == [{"A": 1, "B": 0, "l": 0, "eta": 1}]

    def test_json_input(self):
        payload = json.dumps({"rows": [{"A": 1, "B": 0, "l": 0, "eta": 1}]})
        code, out, _ = invoke("render", "--json", payload)
        assert code == EXIT_OK and out.strip() == "[1,0;0;+]"

    def test_pretty_grid(self):
        code, out, _ = invoke("parse", "--dsl", "[1,0;0;+]",
                              "--format", "dsl", "--pretty")
        assert code == EXIT_OK and "⊕" in out

    @pytest.mark.parametrize("argv", [
        ("--dsl", THREE_ROW), ("--dsl", THREE_ROW, "--pretty"), ("--dsl", ""),
        ("--json", '{"rows":[{"A":1,"B":0,"l":0,"eta":1}]}'),
        ("--dsl", "[1,0;5;+]"), ("--dsl", "[oops"), ("--dsl", "[١,1;0;+]"),
        ("--json", '{"rows":[{"A":1,"B":0,"l":0,"eta":true}]}'),
        ("--dsl", "[0,0;0;+][10000,10000;0;-]", "--pretty"),
    ])
    def test_render_is_parse_to_the_dsl(self, argv, monkeypatch):
        """render is parse --format dsl in strict mode, on input from a flag
        or from stdin: the same output, error and exit code."""
        assert invoke("render", *argv) == invoke(
            "parse", "--format", "dsl", *argv)
        results = []
        for verb in (["render"], ["parse", "--format", "dsl"]):
            monkeypatch.setattr(sys, "stdin", io.StringIO(argv[1]))
            results.append(invoke(*verb, *argv[2:]))
        assert results[0] == results[1]

    def test_invalid_input(self):
        code, _, err = invoke("parse", "--dsl", "[oops")
        assert code == EXIT_INVALID and "error" in err

    def test_json_rows_must_be_a_list(self):
        for payload in ('{"rows": 5}', '{"rows": "x"}',
                        '[{"A": 1, "B": 0, "l": 0, "eta": 1}]'):
            code, _, err = invoke("parse", "--json", payload)
            assert code == EXIT_INVALID and "error" in err

    def test_json_sign_must_be_an_integer(self):
        for eta in ("true", "1.0"):
            payload = '{"rows":[{"A":1,"B":0,"l":0,"eta":%s}]}' % eta
            code, out, err = invoke("parse", "--json", payload)
            assert (code, out) == (EXIT_INVALID, "")
            assert err.startswith("error: eta must be an integer")

    @pytest.mark.parametrize("verb, flag", [
        ("render", "--format"), ("blocks", "--format"), ("count", "--format"),
        ("closure", "--format"), ("blocks", "--pretty"), ("count", "--pretty"),
        ("closure", "--pretty"), ("render", "--relaxed"),
    ])
    def test_output_flags_only_where_they_act(self, verb, flag):
        argv = [verb, "--dsl", "[0,0;0;+][1,1;0;-]", flag]
        if flag == "--format":
            argv.append("dsl")
        code, out, err = invoke(*argv)
        assert (code, out) == (EXIT_INVALID, "")
        assert "unrecognized arguments: " + flag in err

    def test_input_flags_pick_the_parser(self):
        for flag, text, message in (
                ("--json", "[0,0;0;+]", "invalid JSON"),
                ("--dsl", '{"rows":[]}', "expected a row of the form"),
                ("--json", "[1,2]", 'expected an object with a "rows" list')):
            code, out, err = invoke("parse", flag, text)
            assert (code, out) == (EXIT_INVALID, "")
            assert err.startswith("error: " + message)

    def test_input_flags_clash(self):
        code, out, err = invoke("parse", "--dsl", "[1,0;0;+]",
                                "--json", '{"rows":[]}')
        assert (code, out) == (EXIT_INVALID, "")
        assert "not allowed with argument" in err

    def test_unknown_flag(self):
        code, _, err = invoke("parse", "--bogus")
        assert code == EXIT_INVALID

    def test_unknown_verb(self):
        code, _, _ = invoke("frobnicate")
        assert code == EXIT_INVALID


class TestApply:
    def test_dual(self):
        code, out, _ = invoke("apply", "--op", "dual", "--format", "dsl",
                              "--dsl", "[0,0;0;+][1,1;0;-]")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["applied"] and record["result"] == "[1,-1;1;+][0,0;0;-]"

    def test_ui_tag(self):
        code, out, _ = invoke("apply", "--op", "ui", "--k", "0",
                              "--format", "dsl", "--dsl", "[0,0;0;+][1,1;0;-]")
        record = json.loads(out)
        assert code == EXIT_OK and record["type"] == "T3prime"
        assert record["result"] == "[1,0;0;+]"

    def test_dual_ui_dual_outside_its_domain_is_not_applied(self):
        code, out, _ = invoke("apply", "--op", "dual-ui-dual", "--k", "0",
                              "--format", "dsl", "--dsl", "[0,0;0;+][1,1;0;+]")
        assert (code, json.loads(out)) == (EXIT_OK, {
            "applied": False, "type": None, "result": "[0,0;0;+][1,1;0;+]"})

    def test_ui_outside_its_domain_is_not_applied(self):
        code, out, _ = invoke("apply", "--op", "ui", "--k", "0", "--relaxed",
                              "--format", "dsl", "--dsl", "[2,2;-1;-][4,3;-2;-]")
        record = json.loads(out)
        assert code == EXIT_OK and not record["applied"]
        assert record["result"] == "[2,2;-1;-][4,3;-2;-]"

    def test_split_requires_column(self):
        code, _, err = invoke("apply", "--op", "split", "--k", "0",
                              "--dsl", "[1,0;0;+]")
        assert code == EXIT_INVALID

    def test_k_outside_the_rows_is_invalid(self):
        """The position error comes from ops: the split acts on one row,
        every other operator on the adjacent pair at --k."""
        two_rows = "[0,0;0;+][1,1;0;-]"
        for op in ("exchange", "ui", "dual-ui-dual", "merge", "split"):
            at = "row" if op == "split" else "adjacent pair"
            for k in ("-5", "-1", "2"):
                code, out, err = invoke("apply", "--op", op, "--k", k,
                                        "--X", "0", "--dsl", two_rows)
                assert (code, out) == (EXIT_INVALID, ""), (op, k)
                assert err == "error: no %s at position %s\n" % (at, k)
        code, _, err = invoke("apply", "--op", "ui", "--k", "1",
                              "--dsl", two_rows)
        assert code == EXIT_INVALID
        assert err == "error: no adjacent pair at position 1\n"


class TestBlocksVerb:
    def test_decomposition_lines(self):
        code, out, _ = invoke("blocks", "--dsl",
                              "[0,0;0;+][1,1;0;-][1,1;0;-]")
        assert code == EXIT_OK
        lines = [json.loads(line) for line in out.splitlines()]
        assert [l["mults"] for l in lines] == [[1, 1], [1]]
        assert lines[0]["boundary"] == "Type2"


class TestEnumerateVerb:
    def test_tuples_emitted(self):
        code, out, _ = invoke("enumerate", "--M", "1,1", "--cmin", "0",
                              "--with-T")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 3

    def test_takes_no_format(self):
        """Every member is printed as a JSON line with its DSL, so there is
        no format to choose."""
        code, out, err = invoke("enumerate", "--M", "1,1", "--format", "dsl")
        assert (code, out) == (EXIT_INVALID, "")
        assert "unrecognized arguments: --format" in err

    def test_refinement_needs_zero_start(self):
        code, _, _ = invoke("enumerate", "--M", "1,1", "--cmin", "1",
                            "--with-T")
        assert code == EXIT_INVALID

    @staticmethod
    def _first_line(*args):
        """The first line `emseg enumerate` prints, and the seconds it
        took, from a child process with its address space capped at 1 GiB,
        killed after 20 s, so a command that stops streaming fails the
        test instead of filling the memory."""
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(emseg.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "emseg.cli", "enumerate", *args]
        start = time.monotonic()
        with subprocess.Popen(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, env=env,
                              preexec_fn=cap_memory) as proc:
            guard = threading.Timer(20, proc.kill)
            guard.start()
            try:
                first = next(iter(proc.stdout), b"")
            finally:
                guard.cancel()
                proc.kill()
        return first, time.monotonic() - start

    def test_streams_its_members(self):
        """A block of 30 columns has 2^29 S-tuples, and its first member is
        printed at once, before a list of them could be built."""
        first, seconds = self._first_line("--M", "1," * 29 + "1",
                                          "--cmin", "1")
        assert seconds < 10
        record = json.loads(first)
        assert record["S"] == [[c, c] for c in range(1, 31)]
        assert record["dsl"].startswith("[1,1;0;+][2,2;0;-]")

    def test_streams_in_linear_memory(self):
        """The first member of a block of 10^4 columns: successor lists of
        all the intervals the S-tuples may use would hold about 5 * 10^7
        of them, gigabytes, past the cap."""
        first, seconds = self._first_line("--M", "1," * 9999 + "1",
                                          "--cmin", "1")
        assert seconds < 10
        record = json.loads(first)
        assert record["S"] == [[c, c] for c in range(1, 10001)]
        assert record["dsl"].startswith("[1,1;0;+][2,2;0;-]")


class TestCountVerb:
    def test_count_rows(self):
        code, out, _ = invoke("count", "--dsl", "[0,0;0;+][1,1;0;-]")
        assert code == EXIT_OK and json.loads(out)["value"] == 3

    def test_count_block_methods(self):
        for method in ("recursion", "enumeration", "closure"):
            code, out, _ = invoke("count", "--M", "1,1", "--cmin", "0",
                                  "--method", method)
            assert code == EXIT_OK and json.loads(out)["value"] == 3

    @pytest.mark.parametrize("argv", [
        ("--dsl", "[0,0;0;+][1,1;0;-]", "--method", "closure"),
        ("--dsl", "[0,0;0;+][1,1;0;-]", "--cmin", "0"),
        ("--json", '{"rows":[]}', "--method", "recursion"),
        ("--method", "enumeration"),
        ("--M", "1,1", "--dsl", "[0,0;0;+][1,1;0;-]"),
        ("--M", "1,1", "--cmin", "0", "--json", '{"rows":[]}'),
    ])
    def test_block_flags_and_symbol_input_do_not_mix(self, argv):
        code, out, err = invoke("count", *argv)
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith("error: ") and "--M" in err

    @pytest.mark.parametrize("method", ["recursion", "enumeration", "closure"])
    def test_non_blocks_are_invalid(self, method):
        for mults in ("2,1", "1,2,1"):
            code, out, err = invoke("count", "--M", mults, "--method", method)
            assert (code, out) == (EXIT_INVALID, "")
            assert err.startswith("error: a block has odd multiplicities")
        for argv in (("enumerate",), ("enumerate", "--with-T")):
            code, out, err = invoke(*argv, "--M", "2,1")
            assert (code, out) == (EXIT_INVALID, "")
            assert err.startswith("error: a block has odd multiplicities")

    @pytest.mark.parametrize("limits, message", [
        ({"max_states": 3}, "closure hit the state limit (3 states)"),
        ({"max_depth": 1}, "closure hit the depth limit (depth 1)"),
    ])
    @pytest.mark.parametrize("argv", [
        ("count", "--M", "1,3,1", "--method", "closure"),
        ("verify", "--grid", "len<=2,mult<=3,rows<=4"),
    ])
    def test_closure_limit_exits_2(self, monkeypatch, argv, limits, message):
        """A closure count that a limit stops is no invalid input: it exits
        2 and names the limit, as the closure verb does."""
        closure = count.closure
        monkeypatch.setattr(count, "closure", lambda ms: closure(ms, **limits))
        assert invoke(*argv) == (EXIT_LIMITS, "", "limit: %s\n" % message)

    def test_long_block_by_multiplicities(self):
        code, out, err = invoke("count", "--M", ",".join(["1"] * 3000))
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out) == {"value": 3 ** 2999, "method": "recursion"}

    def test_long_block_by_symbol(self):
        long_block = [(1, 3, 5)[i % 3] for i in range(1500)]
        blocks = [(0, long_block), (1502, [3, 1, 5, 1])]
        rows = []
        for c_min, mults in blocks:
            for i, m in enumerate(mults):
                sign = "+" if i % 2 == 0 else "-"
                rows.append("[%d,%d;0;%s]" % (c_min + i, c_min + i, sign) * m)
        code, out, err = invoke("count", "--dsl", "".join(rows))
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["value"] == _reference_product(blocks)


def _reference_product(blocks):
    """The paper's two-term recursion per block, multiplied over blocks in
    column order; only the first block may count from column 0."""
    total = 1
    for i, (c_min, mults) in enumerate(blocks):
        from_zero = c_min == 0 and i == 0
        prev2, prev = 1, 1
        for k in range(1, len(mults)):
            if from_zero:
                cur = 3 * prev if mults[k - 1] == 1 else 4 * prev - prev2
            else:
                cur = 2 * prev if mults[k - 1] == 1 else 3 * prev - prev2
            prev2, prev = prev, cur
        total *= prev
    return total


class TestClosureVerb:
    def test_psi_lines(self):
        code, out, _ = invoke("closure", "--dsl", "[0,0;0;+][1,1;0;-]",
                              "--emit", "psi")
        assert code == EXIT_OK and len(out.splitlines()) == 3

    def test_limit_exit_code(self):
        code, _, err = invoke("closure", "--dsl", "[0,0;0;+][1,1;0;-]",
                              "--limit", "2")
        assert code == EXIT_LIMITS and "limit" in err

    def test_limit_message_names_the_limit(self):
        """The message names the limit that stopped the search and its
        value, not both limits."""
        code, _, err = invoke("closure", "--dsl", "[0,0;0;+][1,1;0;-]",
                              "--limit", "2", "--max-depth", "5")
        assert code == EXIT_LIMITS
        assert "closure hit the state limit (2 states)" in err
        assert "depth" not in err
        code, _, err = invoke("closure", "--dsl", "[0,0;0;+][1,1;0;-]",
                              "--limit", "7", "--max-depth", "1")
        assert code == EXIT_LIMITS
        assert "closure hit the depth limit (depth 1)" in err
        assert "states" not in err

    def test_negative_limits_are_invalid(self):
        for flag in ("--limit", "--max-depth"):
            code, _, err = invoke("closure", "--dsl", "[0,0;0;+][1,1;0;-]",
                                  flag, "-1")
            assert code == EXIT_INVALID and "error" in err

    def test_count_summary(self):
        code, out, _ = invoke("closure", "--dsl", "[0,0;0;+][1,1;0;-]")
        record = json.loads(out)
        assert record["psi"] == 3


class TestVerifyVerb:
    def test_small_grid(self):
        code, out, _ = invoke("verify", "--grid",
                              "len<=2,mult<=3,cmin<=1,rows<=4")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert records and all(r["agree"] for r in records)

    def test_multiplicities_stop_at_the_rows_bound(self):
        """A multiplicity above the rows bound fits no instance, so a huge
        mult bound sweeps the two instances of mult<=1, where listing
        every odd number up to it ran out of memory."""
        code, out, err = invoke("verify", "--grid",
                                "rows<=1,mult<=1000000000000")
        assert (code, err) == (EXIT_OK, "")
        assert [(r["c_min"], r["mults"]) for r in map(
            json.loads, out.splitlines())] == [(0, [1]), (1, [1])]
        assert out == invoke("verify", "--grid", "rows<=1,mult<=1")[1]

    @pytest.mark.parametrize("grid", [
        "cmin<=1000000000000", "len<=1000000000000,rows<=1000000000000"])
    def test_huge_grids_stop_at_the_instance_limit(self, monkeypatch, grid):
        """A grid of 10^12 or more instances exits 2, naming the instance
        limit, after listing one instance past it."""
        listed = []

        def counted(**bounds):
            for M in count.iter_grid(**bounds):
                listed.append(M)
                yield M

        monkeypatch.setattr(cli, "iter_grid", counted)
        start = time.perf_counter()
        assert invoke("verify", "--grid", grid) == (
            EXIT_LIMITS, "", "limit: grid %r holds more than 2000 instances, "
            "the instance limit of verify\n" % grid)
        assert time.perf_counter() - start < 0.5
        assert len(listed) == cli.GRID_MAX_INSTANCES + 1 == 2001

    def test_a_grid_at_the_instance_limit_is_swept(self, monkeypatch):
        monkeypatch.setattr(cli, "GRID_MAX_INSTANCES", 2)
        code, out, _ = invoke("verify", "--grid", "rows<=1")
        assert code == EXIT_OK and len(out.splitlines()) == 2
        assert invoke("verify", "--grid", "rows<=2")[0] == EXIT_LIMITS

    def test_readme_jobs_form(self):
        grid = "len<=2,mult<=3,cmin<=1,rows<=3"
        code, out, _ = invoke("verify", "--grid", grid, "--jobs", "2")
        assert code == EXIT_OK
        assert out == invoke("verify", "--grid", grid)[1]

    def test_spawned_workers_print_the_serial_records(self):
        """Each spawned worker gets its BlockTuples pickled."""
        grid = "len<=3,rows<=5"
        code, out, _ = invoke("verify", "--grid", grid, "--jobs", "2")
        assert code == EXIT_OK and len(out.splitlines()) == 20
        assert out == invoke("verify", "--grid", grid, "--jobs", "1")[1]

    def test_jobs_must_be_positive(self):
        code, _, err = invoke("verify", "--grid", "len<=1", "--jobs", "0")
        assert code == EXIT_INVALID and "error" in err

    def test_disagreement_names_the_instances(self, monkeypatch):
        verify_instance = cli.verify_instance

        def one_disagrees(M):
            record = verify_instance(M)
            if (M.c_min, M.mults) == (1, (1, 3)):
                record["closure"] += 1
                record["agree"] = False
            return record

        monkeypatch.setattr(cli, "verify_instance", one_disagrees)
        code, out, err = invoke("verify", "--grid",
                                "len<=2,mult<=3,cmin<=1,rows<=4", "--jobs", "1")
        assert code == EXIT_INTERNAL
        assert err == ("invariant violation: count methods disagree on the "
                       "grid at (c_min 1, mults [1, 3])\n")
        assert sum(not json.loads(line)["agree"] for line in out.splitlines()) == 1

    def test_bad_grid_spec(self):
        code, _, _ = invoke("verify", "--grid", "width<=3")
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("bound", ["len<=-1", "mult<=-1", "cmin<=-2",
                                       "rows<=-3"])
    def test_negative_grid_bounds_are_invalid(self, bound):
        code, out, err = invoke("verify", "--grid", "len<=2," + bound)
        assert (code, out) == (EXIT_INVALID, "")
        assert err == "error: grid bound %r must be non-negative\n" % bound

    @pytest.mark.parametrize("bound", ["len<=0", "mult<=0", "rows<=0"])
    def test_empty_grid_is_invalid(self, bound):
        """A grid with no instance is refused, not swept as a pass."""
        assert invoke("verify", "--grid", bound) == (
            EXIT_INVALID, "", "error: grid %r holds no instance\n" % bound)

    def test_workers_are_capped(self, monkeypatch):
        """--jobs starts at most one worker per instance and per CPU: the
        pool starts a worker for each instance submitted while none is
        idle.  A fake pool records max_workers and maps in process, so the
        test starts no process."""
        workers = []

        class Pool:
            def __init__(self, max_workers, mp_context):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        # 6, 2 and 1 instances.
        for grid, jobs, expected in (
                ("len<=2,mult<=3,cmin<=1,rows<=3", 2, [2]),
                ("len<=2,mult<=3,cmin<=1,rows<=3", 64, [3]),
                ("len<=1,mult<=1,cmin<=1", 64, [2]),
                ("len<=1,mult<=1,cmin<=0", 64, [])):
            workers.clear()
            serial = invoke("verify", "--grid", grid)
            assert invoke("verify", "--grid", grid, "--jobs", str(jobs)) == (
                serial)
            assert serial[0] == EXIT_OK and workers == expected


HUGE = "1" + "0" * 5000
# The longest integer str() and int() convert by default.
LONGEST = "9" * 4300


class TestOutOfRangeInput:
    """Integers past the interpreter's int-to-str digit limit, non-ASCII
    digits and deep JSON nesting are invalid input, not internal errors."""

    @pytest.mark.parametrize("argv, message", [
        (("count", "--dsl", "[%s,0;0;+]" % HUGE),
         "integer out of range (at position 0)"),
        (("parse", "--dsl", "[1,0;0;+]\n[%s,0;0;+]" % HUGE),
         "integer out of range (at position 10)"),
        (("parse", "--json",
          '{"rows":[{"A": %s, "B": 0, "l": 0, "eta": 1}]}' % HUGE),
         "invalid JSON: integer out of range (at position 0)"),
        (("parse", "--json", "[" * 10 ** 5),
         "invalid JSON: nested too deeply (at position 0)"),
        (("parse", "--dsl", "[１,1;0;+]"),
         "expected a row of the form [A,B;l;s] (at position 0)"),
        (("render", "--dsl", "[١,1;0;+]"),
         "expected a row of the form [A,B;l;s] (at position 0)"),
        # Every integer of the command line is ASCII digits after an
        # optional "-", as in the DSL, and an error names the input.
        (("count", "--M", "1,٣"),
         "--M needs an integer of ASCII digits, got '٣'"),
        (("count", "--M", "١,٣", "--cmin", "١"),
         "--cmin needs an integer of ASCII digits, got '١'"),
        (("apply", "--op", "ui", "--k", "٠", "--dsl", "[0,0;0;+][1,1;0;-]"),
         "--k needs an integer of ASCII digits, got '٠'"),
        (("apply", "--op", "split", "--X", "１", "--dsl", "[1,0;0;+]"),
         "--X needs an integer of ASCII digits, got '１'"),
        (("closure", "--dsl", "[0,0;0;+]", "--limit", "٥"),
         "--limit needs an integer of ASCII digits, got '٥'"),
        (("closure", "--dsl", "[0,0;0;+]", "--max-depth", "٥"),
         "--max-depth needs an integer of ASCII digits, got '٥'"),
        (("verify", "--jobs", "٢"),
         "--jobs needs an integer of ASCII digits, got '٢'"),
        (("verify", "--grid", "len<=١,rows<=١"),
         "grid bound 'len<=١' needs an integer of ASCII digits, got '١'"),
        (("enumerate", "--M", "1", "--cmin", "+5"),
         "--cmin needs an integer of ASCII digits, got '+5'"),
        (("closure", "--dsl", "[0,0;0;+]", "--limit", "1_0"),
         "--limit needs an integer of ASCII digits, got '1_0'"),
        (("count", "--M", "1", "--cmin", HUGE), "--cmin is out of range"),
        (("count", "--M", "1," + HUGE), "--M is out of range"),
        (("verify", "--grid", "cmin<=" + HUGE),
         "grid bound 'cmin<=%s' is out of range" % HUGE),
    ])
    def test_exits_1(self, argv, message):
        assert invoke(*argv) == (EXIT_INVALID, "", "error: %s\n" % message)

    @pytest.mark.parametrize("argv", [
        ("enumerate",), ("count",), ("count", "--method", "closure"),
    ])
    def test_columns_past_the_digit_limit(self, argv):
        """--cmin converts, but the block's next column has 4301 digits:
        the DSL cannot write it, and closure names rows in the DSL."""
        assert invoke(*argv, "--M", "2,1", "--cmin", LONGEST) == (
            EXIT_INVALID, "", "error: the last column of --M is out of range\n")
        assert invoke(*argv, "--M", "1", "--cmin", LONGEST)[0] == EXIT_OK

    def test_enumerate_writes_the_longest_column(self):
        code, out, _ = invoke("enumerate", "--M", "1", "--cmin", LONGEST)
        assert code == EXIT_OK and json.loads(out)["S"] == [[int(LONGEST)] * 2]

    @pytest.mark.parametrize("verb", ["parse", "apply"])
    def test_grid_width_is_a_limit(self, verb):
        """--pretty draws every column between the least and the greatest:
        a symbol spanning more than GRID_MAX_COLUMNS exits 2 before any
        output, where it used to draw lines without end.  A relaxed row of
        huge |l| draws only its symbol's columns, so it is no limit."""
        argv = [verb, "--pretty"] + (["--op", "sort"] if verb == "apply" else [])
        for last, code in ((cli.GRID_MAX_COLUMNS - 1, EXIT_OK),
                           (cli.GRID_MAX_COLUMNS, EXIT_LIMITS),
                           (LONGEST, EXIT_LIMITS)):
            dsl = "[0,0;0;+][%s,%s;0;-]" % (last, last)
            result = invoke(*argv, "--dsl", dsl)
            assert result[0] == code
            if code == EXIT_LIMITS:
                assert result == (EXIT_LIMITS, "",
                                  "limit: --pretty draws at most 10000 columns\n")
        for l, grid in (("9999", "0 1\n> >"), ("-9999", "0 1\n- +"),
                        ("10000", "0 1\n> >"), ("-10000", "0 1\n+ -"),
                        (LONGEST, "0 1\n> >")):
            code, out, err = invoke(*argv, "--relaxed", "--dsl",
                                    "[1,0;%s;+]" % l)
            assert (code, err) == (EXIT_OK, ""), l
            assert out.endswith(grid.replace("-", "⊖").replace("+", "⊕")
                                .replace(">", "▷") + "\n"), l

    def test_psi_past_the_digit_limit(self):
        """a = A + B + 1 of [LONGEST,LONGEST] has 4301 digits."""
        code, out, err = invoke("closure", "--emit", "psi", "--dsl",
                                "[%s,%s;0;+]" % (LONGEST, LONGEST))
        assert (code, err) == (EXIT_OK, "")
        assert out == '{"psi": [[%s, 1]]}\n' % ("1" + LONGEST[:-1] + "9")

    @pytest.mark.parametrize("fmt", ["dsl", "json"])
    def test_result_past_the_digit_limit(self, fmt):
        """The dual of [1,1;LONGEST;+] has l = LONGEST + 1, of 4301
        digits; that of [4,-1;LONGEST;+] has l = LONGEST - 1."""
        dsl = "[1,1;%s;+]" % LONGEST
        assert invoke("apply", "--op", "dual", "--relaxed", "--format", fmt,
                      "--dsl", dsl) == (
            EXIT_LIMITS, "",
            "limit: the result has an integer too long to print\n")
        code, out, _ = invoke("apply", "--op", "dual", "--relaxed",
                              "--format", fmt, "--dsl", "[4,-1;%s;+]" % LONGEST)
        assert code == EXIT_OK and LONGEST[:-1] + "8" in out

    def test_count_past_the_digit_limit(self):
        """3^9999 has 4771 digits, more than str() converts by default:
        the count prints it in full."""
        code, out, err = invoke("count", "--M", ",".join(["1"] * 10 ** 4))
        assert (code, err) == (EXIT_OK, "")
        head, _, tail = out.partition(": ")
        digits, _, rest = tail.partition(",")
        assert (head, rest) == ('{"value"', ' "method": "recursion"}\n')
        assert len(digits) == 4771 and digits.isdigit()
        value = 0
        for i in range(0, len(digits), 1000):
            chunk = digits[i:i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == 3 ** 9999


# Symbols the fuzz mutates: strict and relaxed rows, tempered symbols,
# hats, the empty symbol.
_SEEDS = [
    "[4,-1;2;+][3,2;1;+][4,4;0;-]", "[0,0;0;+][1,1;0;-]",
    "[0,0;0;+][1,1;0;-][1,1;0;-][2,2;0;+]", "[1,0;0;+]", "[2,-2;2;+]",
    "[1,0;5;+][2,2;0;-]", "[0,0;0;-][2,2;0;+][3,3;0;-]", "",
]
_NOISE = ["[", "]", ",", ";", "+", "-", "0", "7", " ", "\xa0", "x",
          "１", "١", "٣", "{", "}", '"', ":", "1.5", "true",
          "null", "[]", "{}", HUGE, "-" + HUGE, LONGEST]
_BAD = ["-1", "x", "", "1.5", "1e3", "١", HUGE, LONGEST]


def _fuzz_int(rng, lo, hi):
    """An integer option value in [lo, hi], or now and then a bad one."""
    if rng.random() < 0.2:
        return rng.choice(_BAD)
    return str(rng.randint(lo, hi))


def _fuzz_text(rng):
    """A seed symbol, in the DSL or JSON, with a few edits."""
    text = rng.choice(_SEEDS)
    if rng.random() < 0.4:
        text = emseg.to_json(emseg.parse(text, "relaxed"))
    for _ in range(rng.choice([0, 0, 0, 0, 1, 1, 2])):
        k = rng.randint(0, len(text))
        edit = rng.randrange(4)
        if edit == 0:
            text = text[:k] + rng.choice(_NOISE) + text[k:]
        elif edit == 1:
            text = text[:k] + text[k + 1:]
        elif edit == 2:
            text = text[:k] + text[k:].replace("1", rng.choice(_NOISE), 1)
        else:
            text = text[:k] + text
    return text


def _fuzz_mults(rng, choices):
    return ",".join(rng.choice(choices) for _ in range(rng.randint(1, 4)))


def _fuzz_argv(rng):
    """A random verb, input and options: mostly well formed, with values
    out of range and stray tokens mixed in."""
    verb = rng.choice(["parse", "render", "apply", "blocks", "enumerate",
                       "count", "closure", "verify"])
    argv = [verb]
    stdin = None
    if verb == "verify":
        return argv + _fuzz_verify_options(rng), stdin
    blocks = verb == "enumerate" or verb == "count" and rng.random() < 0.3
    if not blocks or rng.random() < 0.05:
        source = rng.choice(["--dsl", "--dsl", "--json", "stdin"])
        if source == "stdin":
            stdin = _fuzz_text(rng)
        else:
            argv += [source, _fuzz_text(rng)]
    options = {
        "parse": [["--relaxed"], ["--format", "dsl"], ["--format", "json"],
                  ["--pretty"]],
        "render": [["--pretty"]],
        "apply": [["--k", _fuzz_int(rng, -1, 4)], ["--X", _fuzz_int(rng, -2, 6)],
                  ["--relaxed"], ["--format", "dsl"], ["--pretty"]],
        "blocks": [],
        "enumerate": [["--cmin", _fuzz_int(rng, 0, 3)], ["--with-T"],
                      ["--eta", rng.choice(["+", "-", "-1", "2", "١"])],
                      ["--pretty"]],
        "count": [["--cmin", _fuzz_int(rng, 0, 3)],
                  ["--method", rng.choice(["recursion", "enumeration",
                                           "closure", "guess"])]],
        "closure": [["--max-depth", _fuzz_int(rng, 0, 6)],
                    ["--emit", rng.choice(["nodes", "psi", "count"])]],
    }[verb]
    for option in options:
        if rng.random() < 0.4:
            argv += option
    if verb == "apply":
        argv += ["--op", rng.choice(["exchange", "ui", "dual", "dual-ui-dual",
                                     "sort", "split", "merge", "swap"])]
    if verb == "closure":
        argv += ["--limit", rng.choice(["-1", "0", "3", "50", "300"])]
    if blocks:
        argv += ["--M", _fuzz_mults(rng, ["1", "1", "3", "3", "2", "0", "x"])]
    if rng.random() < 0.05:
        argv.insert(rng.randint(1, len(argv)),
                    rng.choice(["--dsl", "--json", "--bogus", "extra", ""]))
    return argv, stdin


def _fuzz_verify_options(rng):
    """A --grid of small or bad bounds, and now and then a --jobs that
    starts no worker process, or a stray token.  The rows bound comes
    last and is at most 4, so every sweep is a few small instances.  No
    bound is a large int, which would only reach the instance limit
    (TestVerifyVerb tests that)."""
    def bound(hi):
        if rng.random() < 0.1:
            return rng.choice(["-1", "x", "", "1.5", "١", HUGE])
        return str(rng.randint(0, hi))

    items = ["%s<=%s" % (key, bound(3))
             for key in ("len", "mult", "cmin") if rng.random() < 0.5]
    items.append("rows<=" + bound(4))
    if rng.random() < 0.1:
        items.insert(rng.randint(0, len(items) - 1),
                     rng.choice(["width<=3", "len", "len=2", "", " "]))
    argv = ["--grid", ",".join(items)]
    if rng.random() < 0.2:
        argv += ["--jobs", rng.choice(["0", "1", "-1", "x"])]
    if rng.random() < 0.05:
        argv.insert(rng.randint(0, len(argv)),
                    rng.choice(["--dsl", "--M", "--bogus", "extra", ""]))
    return argv


class TestBoundaryFuzz:
    """Seeded mutated DSL/JSON text and random argv through run for every
    verb: each call exits 0, 1 or 2, never 3.  The fixed cases run first,
    and the test stops at the first bad call, so that a tree with a call
    that never ends (an unbounded --pretty grid) fails before it reaches
    one."""

    SECONDS = 2.0

    def test_no_internal_errors(self, monkeypatch):
        rng = random.Random(20261018)
        fixed = [(["count", "--dsl", "[%s,0;0;+]" % HUGE], None),
                 (["parse", "--json", '{"rows":[{"A":%s}]}' % HUGE], None),
                 (["render", "--dsl", "[１,1;0;+]"], None)]
        deadline = time.perf_counter() + self.SECONDS
        calls = 0
        cases = iter(fixed)
        while calls < len(fixed) or time.perf_counter() < deadline:
            argv, stdin = next(cases, None) or _fuzz_argv(rng)
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
            code, _, err = invoke(*argv)
            assert code in (EXIT_OK, EXIT_INVALID, EXIT_LIMITS), (
                calls, [a[:80] for a in argv], (stdin or "")[:80], err[:200])
            calls += 1


VERBS = ("parse", "render", "apply", "blocks", "enumerate", "count",
         "closure", "verify")


class TestRun:
    @pytest.mark.parametrize("argv", [["--help"], ["-h"]]
                             + [[verb, "--help"] for verb in VERBS])
    def test_help_goes_to_out(self, argv):
        """-h/--help writes the help to run's out stream and returns 0,
        where it used to print to sys.stdout and raise SystemExit."""
        code, out, err = invoke(*argv)
        prog = " ".join(["emseg"] + argv[:-1])
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("usage: %s " % prog) and "--help" in out

    def test_main_exits_0_on_help(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["emseg", "apply", "--help"])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: emseg apply ")

    def test_a_closed_output_exits_0(self):
        """A reader that goes away, as `emseg ... | head` does, ends the
        run quietly with exit 0."""
        class Closed:
            def write(self, text):
                raise BrokenPipeError

        err = io.StringIO()
        assert run(["count", "--dsl", "[0,0;0;+][1,1;0;-]"], Closed(),
                   err) == EXIT_OK
        assert err.getvalue() == ""

    def test_unexpected_exception_is_an_internal_error(self, monkeypatch):
        def broken(ms):
            raise RuntimeError("broken\ncount")

        monkeypatch.setattr(cli, "count_tempered", broken)
        code, out, err = invoke("count", "--dsl", "[0,0;0;+][1,1;0;-]")
        assert (code, out) == (EXIT_INTERNAL, "")
        assert err == "internal error: RuntimeError: broken count\n"

    def test_parser_is_reused_without_leaking_state(self, monkeypatch):
        symbol = "[0,0;0;+][1,1;0;-]"
        invoke("count", "--dsl", symbol)
        built = []
        build_parser = cli.build_parser

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        assert invoke("closure", "--dsl", symbol, "--limit", "1")[0] == EXIT_LIMITS
        code, out, _ = invoke("closure", "--dsl", symbol)
        assert code == EXIT_OK and json.loads(out)["psi"] == 3
        assert invoke("parse", "--dsl", "[1,0;5;+]", "--relaxed")[0] == EXIT_OK
        assert invoke("parse", "--dsl", "[1,0;5;+]")[0] == EXIT_INVALID
        assert built == []


def test_start_up_loads_no_introspection_modules():
    """A fresh `import emseg.cli`, as in every command and every spawned
    verify worker, loads none of the modules dataclasses brought in."""
    src = str(Path(emseg.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import emseg.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "emseg.cli" in loaded
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize",
                "linecache", "copy"} & set(loaded)


def test_determinism():
    first = invoke("closure", "--dsl", "[0,0;0;+][1,1;0;-]", "--emit", "nodes")
    second = invoke("closure", "--dsl", "[0,0;0;+][1,1;0;-]", "--emit", "nodes")
    assert first == second


def _readme_block(text, section, fence):
    """The first fenced block of the given kind under a README heading."""
    return text.split("\n## %s\n" % section)[1].split(
        "```%s\n" % fence)[1].split("```")[0]


def test_readme_examples_run():
    """Every `emseg ...` line of README's command-line block exits 0 through
    run, and the Library block runs and gives the results its comments
    show."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [line for line in
                _readme_block(readme, "Command line", "sh").splitlines()
                if line.startswith("emseg ")]
    assert len(commands) == 11
    for line in commands:
        code, _, err = invoke(*shlex.split(line)[1:])
        assert code == EXIT_OK, (line, err)
    namespace, checked = {}, []
    for line in _readme_block(readme, "Library", "python").splitlines():
        source, _, comment = line.partition("#")
        try:
            want = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            exec(source, namespace)
        else:
            assert eval(source, namespace) == want, line
            checked.append(want)
    assert checked == [((1, 1), (3, 1)), 3]
