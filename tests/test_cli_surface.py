"""The command line's surface: exit code, stdout and stderr of ``main`` on
help requests and usage errors, at 80 columns.  ``main`` reads a
well-formed call off the ``COMMANDS`` table with ``_read``, which must
return what argparse returns, and hands every other call to argparse: one
parser per process, built on the first such call.  A parser that earlier
calls have used must print what a new one prints.  The texts were captured
under Python 3.11; later argparse releases word some of these messages
differently."""

import contextlib
import importlib.util
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mclusters
from mclusters import cli
from mclusters.cli import build_parser, main

SURFACE = [
    (["--help"], 0,
     """\
usage: mcluster [-h] {enumerate,compat,ext,orbit,export-zq,verify} ...

Command-line front end.

Coloured-root syntax: ``1,1,0:2`` is the root with those coefficients in
colour 2 (``:1`` may be omitted); ``-e2`` is the negative of the second
simple root.  Pass ``--`` before positional root arguments so that the
leading dash is not parsed as a flag.

Exit codes: 0 success / all checks pass, 1 verification failure or
internal error, 2 usage error, also for m > 1000 or rank > 32, for an
``--out`` path that cannot be opened for writing, for an ``export-zq``
window that walks more than 150,000 vertices, and for ``verify`` or
``enumerate`` past 2,000,000 facets or past a bound of 20,000,000 faces.

positional arguments:
  {enumerate,compat,ext,orbit,export-zq,verify}
    enumerate           enumerate facets and write the complex as JSON
    compat              compatibility verdict for a pair of coloured roots
    ext                 orbit Ext dimensions for a pair of coloured roots
    orbit               print the rotation orbit of a coloured root
    export-zq           DOT export of the translation quiver
    verify              run all theorem/lemma suites for one instance

options:
  -h, --help            show this help message and exit
""",
     ""),
    ([], 2,
     "",
     """\
usage: mcluster [-h] {enumerate,compat,ext,orbit,export-zq,verify} ...
mcluster: error: the following arguments are required: command
"""),
    (["enumerate", "--help"], 0,
     """\
usage: mcluster enumerate [-h] --type TYPE [--m M]
                          [--oracle {combinatorial,categorical,both}]
                          [--out OUT]

options:
  -h, --help            show this help message and exit
  --type TYPE           Dynkin type, e.g. A3, D4, E6
  --m M                 number of colours (1..1000)
  --oracle {combinatorial,categorical,both}
  --out OUT             output path (default: stdout)
""",
     ""),
    (["compat", "--help"], 0,
     """\
usage: mcluster compat [-h] --type TYPE [--m M] x y

positional arguments:
  x
  y

options:
  -h, --help   show this help message and exit
  --type TYPE  Dynkin type, e.g. A3, D4, E6
  --m M        number of colours (1..1000)
""",
     ""),
    (["ext", "--help"], 0,
     """\
usage: mcluster ext [-h] --type TYPE [--m M] x y

positional arguments:
  x
  y

options:
  -h, --help   show this help message and exit
  --type TYPE  Dynkin type, e.g. A3, D4, E6
  --m M        number of colours (1..1000)
""",
     ""),
    (["orbit", "--help"], 0,
     """\
usage: mcluster orbit [-h] --type TYPE [--m M] x

positional arguments:
  x

options:
  -h, --help   show this help message and exit
  --type TYPE  Dynkin type, e.g. A3, D4, E6
  --m M        number of colours (1..1000)
""",
     ""),
    (["export-zq", "--help"], 0,
     """\
usage: mcluster export-zq [-h] --type TYPE [--window WINDOW] [--out OUT]

options:
  -h, --help       show this help message and exit
  --type TYPE      Dynkin type, e.g. A3, D4, E6
  --window WINDOW  coarse-degree range, e.g. --window=-1:1
  --out OUT        output path (default: stdout)
""",
     ""),
    (["verify", "--help"], 0,
     """\
usage: mcluster verify [-h] --type TYPE [--m M]

options:
  -h, --help   show this help message and exit
  --type TYPE  Dynkin type, e.g. A3, D4, E6
  --m M        number of colours (1..1000)
""",
     ""),
    (["bogus"], 2,
     "",
     """\
usage: mcluster [-h] {enumerate,compat,ext,orbit,export-zq,verify} ...
mcluster: error: argument command: invalid choice: 'bogus' (choose from 'enumerate', 'compat', 'ext', 'orbit', 'export-zq', 'verify')
"""),
    (["--type", "A3", "verify"], 2,
     "",
     """\
usage: mcluster [-h] {enumerate,compat,ext,orbit,export-zq,verify} ...
mcluster: error: argument command: invalid choice: 'A3' (choose from 'enumerate', 'compat', 'ext', 'orbit', 'export-zq', 'verify')
"""),
    # The full parser prints its own usage, not a command's, when the command
    # does not come first or an argument is left over.
    (["--type", "A2", "compat", "--", "-e1", "-e2"], 2,
     "",
     """\
usage: mcluster [-h] {enumerate,compat,ext,orbit,export-zq,verify} ...
mcluster: error: argument command: invalid choice: 'A2' (choose from 'enumerate', 'compat', 'ext', 'orbit', 'export-zq', 'verify')
"""),
    (["ext", "--type", "A2", "--", "-e1", "-e2", "extra"], 2,
     "",
     """\
usage: mcluster [-h] {enumerate,compat,ext,orbit,export-zq,verify} ...
mcluster: error: unrecognized arguments: extra
"""),
    (["compat", "--type", "A3"], 2,
     "",
     """\
usage: mcluster compat [-h] --type TYPE [--m M] x y
mcluster compat: error: the following arguments are required: x, y
"""),
    (["verify", "--type"], 2,
     "",
     """\
usage: mcluster verify [-h] --type TYPE [--m M]
mcluster verify: error: argument --type: expected one argument
"""),
    (["verify", "--type", "A3", "extra"], 2,
     "",
     """\
usage: mcluster [-h] {enumerate,compat,ext,orbit,export-zq,verify} ...
mcluster: error: unrecognized arguments: extra
"""),
    (["enumerate", "--oracle", "x", "--type", "A2"], 2,
     "",
     """\
usage: mcluster enumerate [-h] --type TYPE [--m M]
                          [--oracle {combinatorial,categorical,both}]
                          [--out OUT]
mcluster enumerate: error: argument --oracle: invalid choice: 'x' (choose from 'combinatorial', 'categorical', 'both')
"""),
    # --m is read by parse_int too, with argparse's message for type=int.
    (["compat", "--type", "A2", "--m", "x", "--", "-e1", "-e2"], 2,
     "",
     """\
usage: mcluster compat [-h] --type TYPE [--m M] x y
mcluster compat: error: argument --m: invalid int value: 'x'
"""),
    (["verify", "--type", "A3", "--m", "0"], 2,
     "",
     "error: m must be in 1..1000\n"),
    (["verify", "--type", "A2.0"], 2,
     "",
     "error: cannot parse Dynkin type 'A2.0'\n"),
    # The rank is an optional "-" and ASCII digits: int() would also read
    # these as 10, 2, 2 and 3.
    (["verify", "--type", "A1_0"], 2,
     "",
     "error: cannot parse Dynkin type 'A1_0'\n"),
    (["verify", "--type", "A +2"], 2,
     "",
     "error: cannot parse Dynkin type 'A +2'\n"),
    (["verify", "--type", "A+2"], 2,
     "",
     "error: cannot parse Dynkin type 'A+2'\n"),
    (["verify", "--type", "A\u0663"], 2,
     "",
     "error: cannot parse Dynkin type 'A\u0663'\n"),
    (["verify", "--type", "A0"], 2,
     "",
     "error: A rank must be >= 1, got 0\n"),
    (["verify", "--type", "A-1"], 2,
     "",
     "error: A rank must be >= 1, got -1\n"),
    (["compat", "--type", "A2", "--", "1,1:x", "-e1"], 2,
     "",
     "error: cannot parse coloured root '1,1:x': invalid literal for int() with base 10: 'x'\n"),
    # Coefficients, colours, -eN indices and window bounds are read as the
    # rank is: int() would also read colour 1, root (10, 1), colour 1,
    # index 1, root (1, 1) and window 0:10 here.
    (["compat", "--type", "A2", "--", "1,1:+1", "-e1"], 2,
     "",
     "error: cannot parse coloured root '1,1:+1': invalid literal for int() with base 10: '+1'\n"),
    (["compat", "--type", "A2", "--", "1_0,1", "-e1"], 2,
     "",
     "error: cannot parse coloured root '1_0,1': invalid literal for int() with base 10: '1_0'\n"),
    (["compat", "--type", "A2", "--", "1,1:\u0661", "-e1"], 2,
     "",
     "error: cannot parse coloured root '1,1:\u0661': "
     "invalid literal for int() with base 10: '\u0661'\n"),
    (["compat", "--type", "A2", "--", "-e+1", "-e1"], 2,
     "",
     "error: cannot parse coloured root '-e+1': invalid literal for int() with base 10: '+1'\n"),
    (["compat", "--type", "A2", "--", "1, 1:1", "-e1"], 2,
     "",
     "error: cannot parse coloured root '1, 1:1': invalid literal for int() with base 10: ' 1'\n"),
    (["export-zq", "--type", "A2", "--window=+0:1_0"], 2,
     "",
     "error: cannot parse window '+0:1_0'; expected LO:HI\n"),
    # A second ``--`` is read as y, which argparse hands on as [].
    (["compat", "--type", "A2", "--", "1,1", "--"], 2,
     "",
     "error: cannot parse coloured root '--'\n"),
    (["ext", "--type", "A2", "--", "1,1", "--"], 2,
     "",
     "error: cannot parse coloured root '--'\n"),
]


def call(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv,code,out,err", SURFACE,
                         ids=[" ".join(case[0]) or "no-argument" for case in SURFACE])
def test_surface(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    rc = call(argv)
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (code, out, err)


def test_help_names_every_bound():
    """The exit-code paragraph of ``--help`` states each bound as it is set."""
    doc = cli.__doc__
    assert f"m > {cli.MAX_M}" in doc and f"rank > {cli.MAX_RANK}" in doc
    for bound in (cli.MAX_ZQ_VERTICES, cli.MAX_FACETS, cli.MAX_FACES):
        assert f"{bound:,}" in doc, bound


@pytest.mark.parametrize("argv,code,out", [
    (["compat", "--type", "A2", "--", "1,1:1", "-e1"], 0,
     "combinatorial: incompatible  categorical: incompatible  degree: 1\n"),
    ([], 2, "")])
def test_argv_from_sys(capsys, monkeypatch, argv, code, out):
    """``entry()`` calls ``main(None)``, which reads ``sys.argv``."""
    monkeypatch.setattr(sys, "argv", ["mcluster", *argv])
    assert call(None) == code
    assert capsys.readouterr().out == out


def test_reused_parser_same_texts(capsys, monkeypatch):
    """Every case twice in one process: the second run takes the parser
    the first one built, or an earlier test did."""
    monkeypatch.setenv("COLUMNS", "80")
    for argv, code, out, err in SURFACE:
        first = (call(argv), *capsys.readouterr())
        second = (call(argv), *capsys.readouterr())
        assert first == second == (code, out, err), argv


def test_help_at_each_width(capsys, monkeypatch):
    """A reused parser wraps its help at the width of the moment, as a new
    one does."""
    texts = []
    for columns in ("80", "50"):
        monkeypatch.setenv("COLUMNS", columns)
        # At 50 columns the call takes the parser built at 80 or before.
        hits = cli._parser.cache_info().hits
        assert call(["compat", "--help"]) == 0
        texts.append(capsys.readouterr().out)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compat", "--help"])
        assert texts[-1] == capsys.readouterr().out
    assert cli._parser.cache_info().hits > hits
    assert texts[0] != texts[1]


@pytest.mark.parametrize("error", [["compat", "--type", "A2", "--m", "x", "--", "-e1", "-e2"],
                                   ["compat", "--type", "A3"]])
def test_call_after_usage_error(capsys, error):
    """A usage error leaves nothing behind in the parser: the next call
    prints what it prints in a fresh process."""
    argv = ["compat", "--type", "A2", "--m", "2", "--", "1,0:1", "1,0:2"]
    assert call(error) == 2
    capsys.readouterr()
    rc = call(argv)
    captured = capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=str(Path(mclusters.__file__).parent.parent))
    fresh = subprocess.run([sys.executable, "-m", "mclusters.cli", *argv], env=env,
                           capture_output=True, text=True)
    assert (rc, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert rc == 0 and captured.out


# Tokens that argparse reads in ways ``_read`` must refuse or match:
# abbreviations, ``=`` forms, negative numbers, the empty string, dashes,
# every option name, and values of each kind.
OPTIONS = sorted({name for _, arguments, _ in cli.COMMANDS.values()
                  for name, _ in arguments if name.startswith("-")})
VOCABULARY = ["--", "-h", "--ty", "--type=E7", "--m=2", "-1", "", "-e1", "1,0:2", *OPTIONS,
              "A2", "E7", "D4", "2", "0", "1001", "x", "both", "categorical", "0:0", "-1:1",
              "o.json", "compat", "-", "--help"]
VALUES = ["A2", "E7", "0:0", "o.json", "2", "0", "x", "both", "-1", "", "-e1", "--m"]


def _draw(rng, command):
    """An argv for ``command``: often a well-formed shape, with its options
    in a random order and values mostly of their kind, perhaps an option
    twice, a ``--`` where the command has no positionals, or one token
    more; otherwise random tokens."""
    if rng.random() < 0.2:
        return [command, *rng.choices(VOCABULARY, k=rng.randrange(7))]
    arguments = cli.COMMANDS[command][1]
    options = [(name, kwargs) for name, kwargs in arguments if name.startswith("-")]
    positionals = [name for name, _ in arguments if not name.startswith("-")]
    argv = [command]
    required, *others = options  # --type comes first in each row
    chosen = rng.sample(others, rng.randrange(len(others) + 1))
    if rng.random() < 0.9:
        chosen.insert(rng.randrange(len(chosen) + 1), required)
    if chosen and rng.random() < 0.2:
        chosen.append(rng.choice(chosen))
    for name, kwargs in chosen:
        if rng.random() < 0.2:
            value = rng.choice(VALUES)
        elif "choices" in kwargs:
            value = rng.choice(kwargs["choices"])
        else:
            value = str(rng.randrange(4)) if "type" in kwargs else rng.choice(VALUES[:4])
        argv += [name, value]
    if rng.random() < (0.7 if positionals else 0.1):
        argv.append("--")
    argv += [rng.choice(["-e1", "1,0:2", "1,1", "x", "", "-e2", "--"])
             for _ in range(len(positionals))]
    if rng.random() < 0.2:
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(VOCABULARY))
    return argv


def _parse(parser, argv):
    """``vars()`` of the full parser's Namespace, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_read_matches_argparse(command):
    """Wherever ``_read`` accepts an argv, the full parser returns the same
    Namespace, so it never accepts one that argparse refuses."""
    rng = random.Random(f"read {command}")
    parser = build_parser()
    accepted = 0
    for _ in range(400):
        argv = _draw(rng, command)
        args = cli._read(argv)
        if args is not None:
            accepted += 1
            assert vars(args) == _parse(parser, argv), argv
    assert accepted >= 80, accepted  # a fifth of the draws


def test_read_takes_the_query_stream(monkeypatch):
    """Every call of the benchmark's query stream is read without argparse,
    into the Namespace that argparse returns."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # dataclasses look the module up
    spec.loader.exec_module(run)
    parser = build_parser()
    stream = run.make_stream(mclusters, 1, run.Config())
    assert {tuple(argv[:2]) for argv in stream} == {("compat", "--type"), ("ext", "--type")}
    for argv in stream:
        args = cli._read(argv)
        assert args is not None and vars(args) == _parse(parser, argv), argv
