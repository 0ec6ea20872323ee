"""Command-line front end.

Coloured-root syntax: ``1,1,0:2`` is the root with those coefficients in
colour 2 (``:1`` may be omitted); ``-e2`` is the negative of the second
simple root.  Pass ``--`` before positional root arguments so that the
leading dash is not parsed as a flag.

Exit codes: 0 success / all checks pass, 1 verification failure or
internal error, 2 usage error, also for m > 1000 or rank > 32, for an
``--out`` path that cannot be opened for writing, for an ``export-zq``
window that walks more than 150,000 vertices, and for ``verify`` or
``enumerate`` past 2,000,000 facets or past a bound of 20,000,000 faces.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import re
import stat
import sys
import tempfile
from typing import Iterable, Iterator, List, Optional, TextIO

from .cluster_complex import (DEGREE, DUALITY, INVARIANT, ROWS, SHIFT, build_graph,
                              complex_to_json, face_bound, failed_premises,
                              verify_vertex_deletions_on_rows, walk_faces)
from .coloured_roots import ColouredRoot, _reading, _rotation_cap, check_coloured, rotation_Rm
from .derived import derived_category
from .orbit_category import compatible_categorical, mcluster_category
from .root_system import RootSystem, build_root_system, parse_int, parse_type


# Larger inputs exit 2 at once instead of hanging.  ``export-zq`` steps
# each row, one tau^-1 period repeated by shift, out from coarse degree 0
# to each end of its window: |Phi+| vertices per degree.  The
# Fuss-Catalan facet count bounds the facet list that ``enumerate``
# holds, and the face bound the face walk, both from ``face_bound``.  All
# are known before any work.
MAX_M = 1000
MAX_RANK = 32
MAX_ZQ_VERTICES = 150_000
MAX_FACETS = 2_000_000
MAX_FACES = 20_000_000


class UsageError(ValueError):
    pass


# Coefficients as ``parse_int`` reads each of them, joined by commas.
_COEFFICIENTS = r"-?[0-9]+(?:,-?[0-9]+)*"


def parse_coloured_root(rs: RootSystem, m: int, text: str) -> ColouredRoot:
    if not isinstance(text, str):  # argparse reads ``-- X --`` as Y = []
        raise UsageError("cannot parse coloured root '--'")
    try:
        root_text, sep, colour_text = text.strip().partition(":")
        colour = parse_int(colour_text) if sep else 1
        if root_text.startswith("-e"):
            i = parse_int(root_text[2:])
            if not 1 <= i <= rs.n:
                raise UsageError(f"negative simple index {i} out of range 1..{rs.n}")
            coeffs = rs.negative_simple(i - 1)
        else:
            # One match checks every coefficient, and int reads each; a text
            # that fails it is read by parse_int, which names the first bad one.
            read = int if re.fullmatch(_COEFFICIENTS, root_text) else parse_int
            coeffs = tuple(map(read, root_text.split(",")))
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(f"cannot parse coloured root {text!r}: {exc}") from None
    if len(coeffs) != rs.n:
        raise UsageError(f"expected {rs.n} coefficients, got {len(coeffs)}")
    x = ColouredRoot(coeffs, colour)
    try:
        check_coloured(rs, m, x)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return x


def _root_system(args: argparse.Namespace) -> RootSystem:
    try:
        t = parse_type(args.type)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if t.rank > MAX_RANK:
        raise UsageError(f"rank {t.rank} exceeds the largest supported rank {MAX_RANK}")
    return build_root_system(t)


def _bound_work(rs: RootSystem, m: int) -> None:
    """Refuse an instance past the facet or the face bound.  With m and the
    rank bounded, the Hom table needs no bound of its own: A2 m=1000, the
    most categorical work admitted, verifies in about 0.35 s on 2 vCPUs."""
    facets, faces = face_bound(rs, m)
    if facets > MAX_FACETS:
        raise UsageError(f"{rs.type} at m={m} has {facets} facets, more than {MAX_FACETS}")
    if faces > MAX_FACES:
        raise UsageError(f"{rs.type} at m={m} may have up to {faces} faces, "
                         f"more than {MAX_FACES}")


def _file_mode(path: str) -> int:
    """The mode for a file written at ``path``: that of the file there,
    which must be writable, or the default for a new file."""
    if os.path.exists(path):
        with open(path, "a"):  # fails as writing would, and changes nothing
            pass
        return stat.S_IMODE(os.stat(path).st_mode)
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


@contextlib.contextmanager
def _output(out: Optional[str]) -> Iterator[TextIO]:
    """``out`` opened for writing, or stdout.  Commands enter this before
    any work, so that a path that cannot be written exits 2 at once.  A
    file is written to a temporary file beside it, which replaces it once
    the command has written it all: a command that fails before that
    leaves the file as it was, while ``enumerate`` whose oracles disagree
    or whose theorems fail writes its JSON, the evidence, and then exits 1.
    A device or pipe, such as /dev/null, or the empty path is opened."""
    if out is None:
        yield sys.stdout
        return
    tmp = None
    try:
        if not out or os.path.exists(out) and not os.path.isfile(out):
            fh = open(out, "w")
        else:
            target = os.path.realpath(out)
            mode = _file_mode(target)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".mcluster-",
                                       suffix=".tmp")
            fh = open(fd, "w")
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror}") from None
    try:
        with fh:
            yield fh
        if tmp is not None:
            os.chmod(tmp, mode)
            os.replace(tmp, target)
    except BaseException:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise


def _write(chunks: Iterable[str], fh: TextIO) -> None:
    """Write the text joined in batches of chunks, so that a long text is
    never held whole and the stream is not called per chunk."""
    chunks = iter(chunks)
    for batch in iter(lambda: list(itertools.islice(chunks, 8192)), []):
        fh.write("".join(batch))


def cmd_enumerate(args: argparse.Namespace) -> int:
    rs = _root_system(args)
    _bound_work(rs, args.m)
    with _output(args.out) as fh:
        data = complex_to_json(rs, args.m, args.oracle)
        # The same bytes as json.dumps(data, indent=2), streamed.
        _write(itertools.chain(json.JSONEncoder(indent=2).iterencode(data), ["\n"]), fh)
    # A failure exits 1 once the JSON, its evidence, is written.
    failed = [name for name, v in data["verification"].items()
              if "fail" in ([e["result"] for e in v] if name == "theorem4" else [v])]
    disagree = data.get("oracles_agree") is False
    if disagree:
        print("oracle disagreement detected", file=sys.stderr)
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if disagree or failed else 0


def cmd_compat(args: argparse.Namespace) -> int:
    rs = _root_system(args)
    x = parse_coloured_root(rs, args.m, args.x)
    y = parse_coloured_root(rs, args.m, args.y)
    reading = _reading(rs, args.m, x, y)  # 0 when compatible; the degree at m=1
    comb = reading == 0
    cat = compatible_categorical(rs, args.m, x, y)
    line = (f"combinatorial: {'compatible' if comb else 'incompatible'}  "
            f"categorical: {'compatible' if cat else 'incompatible'}")
    if args.m == 1:
        line += f"  degree: {reading}"
    print(line)
    if comb != cat:
        print("oracle disagreement detected", file=sys.stderr)
        return 1
    return 0


def cmd_ext(args: argparse.Namespace) -> int:
    rs = _root_system(args)
    cat = mcluster_category(rs, args.m)
    x = parse_coloured_root(rs, args.m, args.x)
    y = parse_coloured_root(rs, args.m, args.y)
    X, Y = cat.W(x), cat.W(y)
    for i, d in enumerate(list(cat.ext_dims(X, Y)), start=1):  # no line before all m terms
        print(f"Ext^{i}({X}, {Y}) = {d}")
    return 0


def cmd_orbit(args: argparse.Namespace) -> int:
    rs = _root_system(args)
    x = parse_coloured_root(rs, args.m, args.x)
    start = x
    steps = [x]
    # An orbit lies in the ground set, so it closes within the rotation cap.
    for _ in range(_rotation_cap(rs, args.m)):
        x = rotation_Rm(rs, args.m, x)
        if x == start:
            break
        steps.append(x)
    else:
        raise RuntimeError("rotation orbit longer than the ground set (bug)")
    print(" -> ".join(str(s) for s in steps) + " -> (cycle)")
    return 0


def cmd_export_zq(args: argparse.Namespace) -> int:
    rs = _root_system(args)
    try:
        lo, hi = map(parse_int, args.window.split(":"))
    except ValueError:
        raise UsageError(f"cannot parse window {args.window!r}; expected LO:HI") from None
    vertices = (max(hi, 0) - min(lo, 0) + 1) * len(rs.positive_roots)
    if vertices > MAX_ZQ_VERTICES:
        raise UsageError(f"window {lo}:{hi} walks {vertices} vertices, "
                         f"more than {MAX_ZQ_VERTICES}")
    with _output(args.out) as fh:
        _write([derived_category(rs).export_zq_dot(lo, hi)], fh)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    rs = _root_system(args)
    m = args.m
    _bound_work(rs, m)
    failures = 0

    def record(name: str, ok: bool, detail: str, premise: Optional[str] = None) -> None:
        nonlocal failures
        suffix = f" (failed premise: {premise})" if premise else ""
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}{suffix}")
        if not ok:
            failures += 1

    g_comb = build_graph(rs, m, "combinatorial")
    size = len(g_comb.nodes)
    # Each check that compares the oracles takes its verdict from the
    # premises of its proof, and fails with the first of them that fails.
    failed = failed_premises(g_comb)

    def first(*names: str) -> Optional[str]:
        return next((name for name in failed if name in names), None)

    equal = first(SHIFT, INVARIANT, DUALITY, ROWS)
    record("oracle equivalence", not equal, f"{size} nodes, {size * (size + 1) // 2} pairs", equal)

    parab, walk = verify_vertex_deletions_on_rows(g_comb, not first(SHIFT, INVARIANT))
    if walk is None:
        walk = walk_faces(g_comb)
    record("facet sizes = rank", walk.theorem2(rs.n),
           f"{sum(walk.facet_sizes.values())} facets")
    record(f"complement count = {m + 1}", walk.theorem3(m),
           f"{sum(walk.ridges.values())} almost-complete sets")

    deleted = next((f"{rep.premise}, deletion of vertex {drop}"
                    for drop, rep in enumerate(parab, start=1) if rep.premise), None)
    premise = (equal if parab else None) or deleted  # rank 1 has no subsystem
    record("parabolic restriction", not premise and all(rep.passed for rep in parab),
           f"{sum(rep.checked for rep in parab)} supported pairs", premise)

    record("rotation matches shift", SHIFT not in failed, f"{size} coloured roots")

    dual = first(SHIFT, DUALITY)
    record("Ext dimension symmetry", not dual, f"{size ** 2 * m} (pair, degree) instances", dual)

    if m == 1:
        degree = first(SHIFT, DUALITY, DEGREE)
        record("Ext^1 = compatibility degree", not degree, f"{size ** 2} ordered pairs", degree)

    return 1 if failures else 0


def _parse_m(text: str) -> int:
    """``--m`` read by ``parse_int``, refused with the message argparse
    gives for ``type=int``."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


_TYPE = ("--type", {"required": True, "help": "Dynkin type, e.g. A3, D4, E6"})
_M = ("--m", {"type": _parse_m, "default": 1, "help": f"number of colours (1..{MAX_M})"})
_OUT = ("--out", {"help": "output path (default: stdout)"})
_PAIR = (_TYPE, _M, ("x", {}), ("y", {}))  # the arguments of compat and ext

# One row per subcommand: help, its arguments as (name, add_argument
# keywords), and its handler.  ``build_parser`` and ``_read`` (through
# ``_READS``) both read these rows, so each name, default and choice is
# stated here once.
COMMANDS = {
    "enumerate": ("enumerate facets and write the complex as JSON",
                  (_TYPE, _M, ("--oracle", {"choices": ["combinatorial", "categorical", "both"],
                                            "default": "combinatorial"}), _OUT), cmd_enumerate),
    "compat": ("compatibility verdict for a pair of coloured roots", _PAIR, cmd_compat),
    "ext": ("orbit Ext dimensions for a pair of coloured roots", _PAIR, cmd_ext),
    "orbit": ("print the rotation orbit of a coloured root", (_TYPE, _M, ("x", {})), cmd_orbit),
    "export-zq": ("DOT export of the translation quiver",
                  (_TYPE, ("--window", {"default": "0:0",
                                        "help": "coarse-degree range, e.g. --window=-1:1"}),
                   _OUT), cmd_export_zq),
    "verify": ("run all theorem/lemma suites for one instance", (_TYPE, _M), cmd_verify),
}


def build_parser() -> argparse.ArgumentParser:
    """A new parser with a subparser for every row of ``COMMANDS``.
    ``main`` takes its parser from ``_parser``, which builds it once per
    process, the first time ``_read`` refuses a call; a caller that changes
    a parser builds its own here."""
    parser = argparse.ArgumentParser(prog="mcluster", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, fn) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
        p.set_defaults(fn=fn)
    return parser


# The one parser of a process, built on first use.  Parsing leaves it as
# it was (each call gets a new Namespace), and help, usage and error texts
# are formatted when printed, at the width of that moment, so it serves
# every call of a process.
_parser = functools.lru_cache(maxsize=1)(build_parser)


# ``_read``'s view of each row of ``COMMANDS``, split once: its options by
# name, each with its Namespace attribute and keywords, its positionals in
# order, and its handler.
_READS = {command: ({name: (name[2:].replace("-", "_"), kwargs)
                     for name, kwargs in arguments if name.startswith("-")},
                    [name for name, _ in arguments if not name.startswith("-")], fn)
          for command, (_, arguments, fn) in COMMANDS.items()}


def _read(argv: List[str]) -> Optional[argparse.Namespace]:
    """What ``build_parser().parse_args(argv)`` returns, read off the
    command's row of ``_READS`` for a call that is a command, ``NAME VALUE``
    for its options (each at most once, the required ones given, VALUE of
    the option's type and choices and not starting with ``-``) and its
    positionals after an optional ``--``; None for any other call."""
    row = _READS.get(argv[0]) if argv else None
    if row is None:
        return None
    options, positionals, fn = row
    given, i = {}, 1
    while (i + 1 < len(argv) and argv[i] in options and argv[i] not in given
           and not argv[i + 1].startswith("-")):
        given[argv[i]] = argv[i + 1]
        i += 2
    dashed = bool(positionals) and argv[i:i + 1] == ["--"]
    rest = argv[i + dashed:]
    if len(rest) != len(positionals) or any(
            t == "--" or (not dashed and t.startswith("-")) for t in rest):
        return None
    args = argparse.Namespace(command=argv[0], fn=fn, **dict(zip(positionals, rest)))
    for name, (dest, kwargs) in options.items():
        if name in given:
            try:
                value = kwargs.get("type", str)(given[name])
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if value not in kwargs.get("choices", (value,)):
                return None
        elif kwargs.get("required"):
            return None
        else:
            value = kwargs.get("default")
        setattr(args, dest, value)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    """Run one call: ``_read`` reads a well-formed one without a parser,
    and ``_parser()`` reads any other and prints every help and error text."""
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv)
    if args is None:
        args = _parser().parse_args(argv)
    if not 1 <= getattr(args, "m", 1) <= MAX_M:
        print(f"error: m must be in 1..{MAX_M}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early: no fault here.  The rest of its
        # buffer goes to os.devnull, so the flush at exit raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
