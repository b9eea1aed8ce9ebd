"""Command line interface: parse/render/apply/blocks/enumerate/count/closure/verify.

Bulk output is JSON lines; human-readable symbol grids sit behind --pretty.
Exit codes: 0 success, 1 invalid input, 2 limits exceeded, 3 internal
error (an invariant violation or any other unexpected exception).
"""

import argparse
import functools
import json
import os
import sys
from itertools import islice, repeat

from .blocks import BlockTuple, block_tuples, classify_boundary, tempered_block
from .closure import (
    DEFAULT_MAX_DEPTH, DEFAULT_MAX_STATES, LimitError, closure,
)
from .core import (
    _INTEGER_RE, SegmentError, from_json, parse, render, render_grid, to_json,
)
from .count import (
    METHODS, RECURSION, count_tempered, iter_grid, verify_instance,
)
from .ops import (
    OpResult, dual, dual_ui_dual, merge_hats, row_exchange, split_circles,
    to_sorted, ui,
)
from .sdata import build, iter_S, iter_ST

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_LIMITS = 2
EXIT_INTERNAL = 3


class CliInputError(Exception):
    """Bad command line or bad input data."""


class _Help(Exception):
    """-h/--help was given; run writes the message, the help text, to its
    out stream."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)

    def print_help(self, file=None):
        """Hand the help to run, in place of argparse's print to
        sys.stdout and SystemExit."""
        raise _Help(self.format_help())


def _read_ms(args, mode="strict"):
    """The input symbol: --dsl and --json pick their parser, stdin is sniffed."""
    if args.dsl is not None:
        return parse(args.dsl, mode)
    if args.json_text is not None:
        return from_json(args.json_text, mode)
    text = sys.stdin.read().strip()
    if text.startswith("{"):
        return from_json(text, mode)
    return parse(text, mode)


# --pretty draws a cell for every column from the least B to the greatest
# A, so two far-apart columns would draw without end.
GRID_MAX_COLUMNS = 10 ** 4


def _pretty(ms, args):
    """The symbol grid and a newline under --pretty, else ""."""
    if not args.pretty:
        return ""
    rows = ms.rows
    if rows and (max(r.A for r in rows) - min(r.B for r in rows)
                 >= GRID_MAX_COLUMNS):
        raise LimitError(
            "--pretty draws at most %d columns" % GRID_MAX_COLUMNS)
    return render_grid(ms, unicode_symbols=True) + "\n"


def _read_int(text, name, least=None):
    """The integer text of the input called name: ASCII digits after an
    optional "-", as in the DSL, and no less than least when that is
    given.  Anything else raises a CliInputError that names the input."""
    if _INTEGER_RE.fullmatch(text) is None:
        raise CliInputError("%s needs an integer of ASCII digits, got %r"
                            % (name, text))
    try:
        value = int(text)
    except ValueError:
        # int() refuses more digits than sys.get_int_max_str_digits().
        raise CliInputError("%s is out of range" % name)
    if least is not None and value < least:
        raise CliInputError("%s must be %s" % (
            name, "at least %d" % least if least else "non-negative"))
    return value


def _parse_eta(text):
    if text in ("+", "+1", "1"):
        return 1
    if text in ("-", "-1"):
        return -1
    raise CliInputError("eta must be + or -, got %r" % (text,))


def _parse_block_tuple(text, c_min):
    mults = tuple(_read_int(x, "--M") for x in text.replace(" ", "").split(","))
    try:
        str(c_min + len(mults) - 1)
    except ValueError:
        raise CliInputError("the last column of --M is out of range")
    return BlockTuple(c_min, mults)


def _parse_grid_spec(spec):
    """The iter_grid keywords of the bounds the spec gives."""
    bounds = {}
    for item in spec.replace(" ", "").split(","):
        if not item:
            continue
        if "<=" not in item:
            raise CliInputError("grid bound %r is not of the form key<=n" % item)
        key, _, val = item.partition("<=")
        if key not in ("len", "mult", "cmin", "rows"):
            raise CliInputError("unknown grid bound %r" % key)
        bounds["max_" + key] = _read_int(val, "grid bound %r" % item, least=0)
    return bounds


def _cmd_parse(args, out):
    ms = _read_ms(args, mode="relaxed" if args.relaxed else "strict")
    grid = _pretty(ms, args)
    text = render(ms) if args.format == "dsl" else to_json(ms)
    out.write(text + "\n" + grid)
    return EXIT_OK


def _split(ms, args):
    if args.X is None:
        raise CliInputError("split needs --X")
    return OpResult(split_circles(ms, args.k, args.X), True)


# Each operator's call on the symbol and the args; ops checks --k and --X.
_OPS = {
    "exchange": lambda ms, args: row_exchange(ms, args.k),
    "ui": lambda ms, args: ui(ms, args.k),
    "dual": lambda ms, args: OpResult(dual(ms), True),
    "dual-ui-dual": lambda ms, args: dual_ui_dual(ms, args.k),
    "sort": lambda ms, args: OpResult(to_sorted(ms), True),
    "split": _split,
    "merge": lambda ms, args: merge_hats(ms, args.k),
}


def _cmd_apply(args, out):
    ms = _read_ms(args, mode="relaxed" if args.relaxed else "strict")
    res = _OPS[args.op](ms, args)
    try:
        shown = (json.dumps(render(res.out)) if args.format == "dsl"
                 else to_json(res.out))
    except ValueError:
        # str() refuses an int of more than sys.get_int_max_str_digits()
        # digits, and the dual of a relaxed row has l + B, past its input's.
        raise LimitError("the result has an integer too long to print")
    grid = _pretty(res.out, args)
    out.write('{"applied": %s, "type": %s, "result": %s}\n'
              % (json.dumps(res.applied), json.dumps(res.type_tag), shown)
              + grid)
    return EXIT_OK


def _cmd_blocks(args, out):
    split = block_tuples(_read_ms(args))
    blocks = [tempered_block(bt, eta) for bt, eta in split]
    for i, ((bt, _), blk) in enumerate(zip(split, blocks)):
        record = {
            "index": i,
            "dsl": render(blk),
            "c_min": bt.c_min,
            "mults": list(bt.mults),
        }
        if i + 1 < len(blocks):
            record["boundary"] = classify_boundary(blk, blocks[i + 1]).kind
        out.write(json.dumps(record) + "\n")
    return EXIT_OK


def _cmd_enumerate(args, out):
    M = _parse_block_tuple(args.M, args.cmin)
    eta = _parse_eta(args.eta)
    members = iter_ST(M) if args.with_T else zip(iter_S(M), repeat(None))
    for S, T in members:
        ms = build(M, S, T, eta)
        record = {"S": [list(iv) for iv in S], "dsl": render(ms)}
        if T is not None:
            record["T"] = [[list(p) for p in parts] for parts in T]
        grid = _pretty(ms, args)
        out.write(json.dumps(record) + "\n" + grid)
    return EXIT_OK


def _cmd_count(args, out):
    if args.M is None:
        if args.method is not None or args.cmin is not None:
            raise CliInputError("--method and --cmin need --M")
        pc = count_tempered(_read_ms(args))
    else:
        if args.dsl is not None or args.json_text is not None:
            raise CliInputError("--M counts a block and takes no symbol input")
        M = _parse_block_tuple(args.M, args.cmin or 0)
        pc = METHODS[args.method or RECURSION](M)
    out.write('{"value": %s, "method": %s}\n'
              % (_decimal(pc.value), json.dumps(pc.method)))
    return EXIT_OK


# str() refuses an int of more digits than sys.get_int_max_str_digits(),
# 4300 by default; _decimal converts below that, a chunk at a time.
_CHUNK = 10 ** 1000


def _decimal(n):
    """str(n) for an n >= 0 of any size, such as a count, or a = A + B + 1
    of a row whose A and B have the most digits str() converts."""
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append("%01000d" % low)
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _cmd_closure(args, out):
    ms = _read_ms(args)
    report = closure(ms, max_states=args.limit, max_depth=args.max_depth)
    if not report.exhausted:
        raise LimitError.of(report.stop, report.max_states, report.max_depth)
    if args.emit == "nodes":
        for key in sorted(report.nodes):
            out.write(json.dumps({"node": key.decode()}) + "\n")
    elif args.emit == "psi":
        for psi in sorted(report.psi):
            out.write('{"psi": [%s]}\n' % ", ".join(
                "[%s, %s]" % (_decimal(a), _decimal(b)) for a, b in psi))
    else:
        out.write(json.dumps({
            "nodes": len(report.nodes),
            "psi": len(report.psi),
            "states": report.states,
        }) + "\n")
    return EXIT_OK


# verify sweeps at most this many grid instances.  Grids past it are out
# of reach anyway: the 962 instances of len<=7,rows<=14 take about a
# minute, and the closure of the 14-row block (1,)*14 at c_min 0 already
# stops at its state limit.  The listing stops one instance past the
# limit, so a huge bound neither lists nor holds 10^12 instances.
GRID_MAX_INSTANCES = 2000


def _cmd_verify(args, out):
    instances = list(islice(iter_grid(**_parse_grid_spec(args.grid)),
                            GRID_MAX_INSTANCES + 1))
    if not instances:
        raise CliInputError("grid %r holds no instance" % args.grid)
    if len(instances) > GRID_MAX_INSTANCES:
        raise LimitError(
            "grid %r holds more than %d instances, the instance limit of "
            "verify" % (args.grid, GRID_MAX_INSTANCES))
    # The pool starts a worker per instance submitted while none is idle,
    # so it is capped at one per instance and per CPU.
    jobs = min(args.jobs, len(instances), os.cpu_count() or 1)
    if jobs > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(verify_instance, instances))
    else:
        results = [verify_instance(M) for M in instances]
    for record in results:
        out.write(json.dumps(record) + "\n")
    bad = ["(c_min %d, mults %s)" % (r["c_min"], r["mults"])
           for r in results if not r["agree"]]
    if bad:
        raise AssertionError(
            "count methods disagree on the grid at " + ", ".join(bad))
    return EXIT_OK


def _add_input_flags(p):
    source = p.add_mutually_exclusive_group()
    source.add_argument("--dsl", help="row list in the [A,B;l;s] notation")
    source.add_argument("--json", dest="json_text", help="row list as JSON")


def _add_output_flags(p):
    p.add_argument("--format", choices=("dsl", "json"), default="json",
                   help="output format for multi-segments")
    _add_pretty_flag(p)


def _add_integer_flag(p, flag, least=None, **kwargs):
    """A flag whose value _read_int reads; argparse lets its CliInputError
    through to run."""
    p.add_argument(flag, type=functools.partial(_read_int, name=flag,
                                                least=least), **kwargs)


def _add_pretty_flag(p):
    p.add_argument("--pretty", action="store_true",
                   help="also draw the symbol grid")


def build_parser():
    top = _Parser(prog="emseg", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("parse", help="parse and normalize a row list")
    _add_input_flags(p)
    _add_output_flags(p)
    p.add_argument("--relaxed", action="store_true",
                   help="accept symbols with out-of-range l")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("render", help="render a row list to DSL text")
    _add_input_flags(p)
    _add_pretty_flag(p)
    p.set_defaults(func=_cmd_parse, format="dsl", relaxed=False)

    p = sub.add_parser("apply", help="apply one operator")
    _add_input_flags(p)
    _add_output_flags(p)
    p.add_argument("--op", required=True, choices=tuple(_OPS))
    _add_integer_flag(p, "--k", default=0, help="row position")
    _add_integer_flag(p, "--X", help="split column")
    p.add_argument("--relaxed", action="store_true")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("blocks", help="decompose a tempered row list")
    _add_input_flags(p)
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("enumerate", help="enumerate class coordinates")
    p.add_argument("--M", required=True, help="comma-separated multiplicities")
    _add_integer_flag(p, "--cmin", default=0)
    p.add_argument("--with-T", dest="with_T", action="store_true")
    p.add_argument("--eta", default="+")
    _add_pretty_flag(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("count", help="count packets")
    _add_input_flags(p)
    p.add_argument("--M", help="comma-separated multiplicities")
    _add_integer_flag(p, "--cmin", help="first column of --M (default 0)")
    p.add_argument("--method", choices=tuple(METHODS),
                   help="counting method for --M (default recursion)")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("closure", help="breadth-first class exploration")
    _add_input_flags(p)
    _add_integer_flag(p, "--limit", least=0, default=DEFAULT_MAX_STATES)
    _add_integer_flag(p, "--max-depth", least=0, default=DEFAULT_MAX_DEPTH)
    p.add_argument("--emit", choices=("nodes", "psi", "count"),
                   default="count")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("verify", help="three-way count agreement sweep")
    p.add_argument("--grid", default="",
                   help='bounds like "len<=4,mult<=5,cmin<=1,rows<=9"')
    _add_integer_flag(p, "--jobs", least=1, default=1,
                      help="worker processes for the sweep")
    p.set_defaults(func=_cmd_verify)

    return top


@functools.lru_cache(maxsize=None)
def _parser():
    """build_parser, once per process: parse_args leaves the parser as it was."""
    return build_parser()


def run(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _parser().parse_args(argv)
        return args.func(args, out)
    except _Help as e:
        out.write(str(e))
        return EXIT_OK
    except LimitError as e:
        err.write("limit: %s\n" % e)
        return EXIT_LIMITS
    except (CliInputError, SegmentError) as e:
        err.write("error: %s\n" % e)
        return EXIT_INVALID
    except AssertionError as e:
        err.write("invariant violation: %s\n" % e)
        return EXIT_INTERNAL
    except BrokenPipeError:
        return EXIT_OK
    except Exception as e:
        message = " ".join(str(e).split())
        err.write("internal error: %s: %s\n" % (type(e).__name__, message))
        return EXIT_INTERNAL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
