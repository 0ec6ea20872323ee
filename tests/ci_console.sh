#!/usr/bin/env bash
# The console-script checks that CI runs after `pip install .`: exit codes,
# outputs and peak RSS of the `mcluster` command, one check a line.  The
# command is read from MCLUSTER (default `mcluster`), split into words, so
# that a checkout can run the same lines without installing:
#
#   MCLUSTER="python -m mclusters.cli" PYTHONPATH=src bash -eo pipefail tests/ci_console.sh
#
# Its scratch files go to a directory of its own, removed on exit.
set -eo pipefail
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
MCLUSTER=${MCLUSTER:-mcluster}
python -c "import sys, mclusters.cli; loaded = {'dataclasses', 'mclusters.quiver_rep'} & set(sys.modules); assert not loaded, loaded"
python -c "import mclusters.cli as cli, mclusters.root_system as r; built = cli._parser.cache_info().currsize, r._diagram.cache_info().currsize; assert built == (0, 0), f'{built} parsers and diagrams built at import'"
python -c "import mclusters.cli as cli, mclusters.root_system as r; codes = [cli.main([c, '--type', t, '--', '-e1', '-e2']) for c, t in zip(('compat', 'ext') * 5, ('A6', 'D6', 'E6', 'E7', 'E8') * 2)]; built = r._diagram.cache_info().currsize, cli._parser.cache_info().currsize; assert codes == [0] * 10 and built == (5, 0), (codes, built)" > /dev/null
python -c "import mclusters.cli as cli; steps = [(cli.main(argv), cli._parser.cache_info().currsize) for argv in (['compat', '--type', 'A6', '--', '-e1', '-e2'], ['compat', '--m=2', '--type', 'A6', '--', '-e1', '-e2'], ['ext', '--type', 'E6', '--', '-e1', '-e2'])]; misses = cli._parser.cache_info().misses; assert steps == [(0, 0), (0, 1), (0, 1)] and misses == 1, (steps, misses)" > /dev/null
python -c "from mclusters import build_root_system, parse_type, derived_category; d = derived_category(build_root_system(parse_type('D32'))); roots = d.rs.positive_roots; assert len(roots) ** 2 == 984064 and d.euler_rows()[1][0].itemsize == 1 and d.euler_matrix() == [[d._euler(g, e) for e in roots] for g in roots]"
$MCLUSTER verify --type D4 --m 2
$MCLUSTER verify --type E7 --m 2
$MCLUSTER verify --type E8 --m 1
$MCLUSTER verify --type E8 --m 2
$MCLUSTER verify --type A5 --m 10
$MCLUSTER verify --type A6 --m 3
$MCLUSTER verify --type D10 --m 1
$MCLUSTER verify --type A11 --m 1
python -c "import resource, mclusters.cli as cli; assert cli.main(['enumerate', '--type', 'E7', '--m', '2', '--out', '/dev/null']) == 0; peaks = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]; assert max(peaks) < 32 * 1024, f'enumerate E7 m=2 peaked at {peaks} KiB (itself, its child)'"
python -c "import resource, mclusters.cli as cli; assert cli.main(['verify', '--type', 'E8', '--m', '2']) == 0; peaks = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]; assert max(peaks) < 32 * 1024, f'verify E8 m=2 peaked at {peaks} KiB (itself, its child)'" > /dev/null
test "$($MCLUSTER enumerate --type E7 --m 2 | sha256sum | cut -d' ' -f1)" = \
  63acbbb8f8d7323113cafc2b3684e96a266782eea9b66a99ebf227ed992bbb33
$MCLUSTER enumerate --type A3 --m 2 --oracle both > /dev/null
python -c "import io, sys, mclusters.cli as cli, mclusters.derived as d, mclusters.orbit_category as oc; oc.MClusterCategory._image = lambda self: (self.objects(), [d.shift(self.D.tau_inverse(X), self.m) for X in self.objects()]); sys.stderr = err = io.StringIO(); code = cli.main(['enumerate', '--type', 'A3', '--m', '2', '--oracle', 'categorical', '--out', '/dev/null']); sys.stderr = sys.__stderr__; assert code == 1 and err.getvalue().startswith('internal error: '), ('enumerate with the G step for G^-1', code, err.getvalue())"
$MCLUSTER compat --type E8 --m 3 -- 2,4,6,5,4,3,2,3:2 -e1
test "$($MCLUSTER compat --type E8 --m 1 -- 2,4,6,5,4,3,2,3 -e3)" = \
  "combinatorial: incompatible  categorical: incompatible  degree: 6"
$MCLUSTER compat --type A2 -- -e1 -e2
status=0
$MCLUSTER compat --type A2 -- -e1 -e2 extra 2>"$tmp/err.txt" || status=$?
test "$status" -eq 2
grep -qx "mcluster: error: unrecognized arguments: extra" "$tmp/err.txt"
status=0
$MCLUSTER compat --type A2 -- 1,1:x -e1 || status=$?
test "$status" -eq 2
status=0; $MCLUSTER compat --type A2 -- 1,1 -- 2>"$tmp/err.txt" || status=$?; test "$status: $(cat "$tmp/err.txt")" = "2: error: cannot parse coloured root '--'"
status=0
$MCLUSTER enumerate --type E6 --m 2 2>"$tmp/err.txt" | head -c 100 >/dev/null || status=$?
test "$status" -eq 1
test ! -s "$tmp/err.txt"
status=0
$MCLUSTER verify --type A2.0 || status=$?
test "$status" -eq 2
test "$($MCLUSTER ext --type E8 --m 3 -- 2,4,6,5,4,3,2,3:2 0,1,2,2,1,1,1,1:3)" = \
  "$(printf 'Ext^%s(V(2,4,6,5,4,3,2,3)[1], V(0,1,2,2,1,1,1,1)[2]) = %s\n' 1 0 2 0 3 3)"
$MCLUSTER ext --type A2 --m 1000 -- 1,1:1000 1,0:3 > "$tmp/ext.txt"
test "$(wc -l < "$tmp/ext.txt")" -eq 1000
test "$(grep -v ' = 0$' "$tmp/ext.txt")" = "Ext^997(V(1,1)[999], V(1,0)[2]) = 1"
test "$($MCLUSTER orbit --type A2 --m 2 -- 1,0:1)" = \
  "(1,0)^1 -> (1,0)^2 -> (0,1)^1 -> (0,1)^2 -> (0,-1)^1 -> (1,1)^1 -> (1,1)^2 -> (-1,0)^1 -> (cycle)"
test "$($MCLUSTER export-zq --type D32 --window=-75:75 | sha256sum | cut -d' ' -f1)" = \
  25a673f3cd250c94fce4e6bb47f5ba04180acd4dbc78db36f2a5d2b77440e7b6
$MCLUSTER --help > /dev/null
$MCLUSTER compat --help > /dev/null
status=0
$MCLUSTER bogus || status=$?
test "$status" -eq 2
status=0
$MCLUSTER verify --type A3 extra || status=$?
test "$status" -eq 2
status=0
$MCLUSTER verify --type D12 --m 1 || status=$?
test "$status" -eq 2
$MCLUSTER verify --type A3 --m 19
$MCLUSTER verify --type A2 --m 166
python -c "import resource, mclusters.cli as cli; assert cli.main(['verify', '--type', 'A1', '--m', '499']) == 0; peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; assert peak < 40 * 1024, f'verify A1 m=499 peaked at {peak} KiB'"
python -c "import resource, mclusters.cli as cli; assert cli.main(['verify', '--type', 'A2', '--m', '1000']) == 0; peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; assert peak < 30 * 1024, f'verify A2 m=1000 peaked at {peak} KiB'"
python -c "import io, sys, resource, mclusters.cli as cli, mclusters.orbit_category as oc; oc.MClusterCategory.shift_invariant = lambda self: False; sys.stdout = out = io.StringIO(); code = cli.main(['verify', '--type', 'A2', '--m', '1000']); sys.stdout = sys.__stdout__; peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; assert code == 1 and '(failed premise: H shift-invariant)' in out.getvalue(), (code, out.getvalue()); assert peak < 30 * 1024, f'verify A2 m=1000 with a failed premise peaked at {peak} KiB'"
$MCLUSTER verify --type A2 --m 167
$MCLUSTER verify --type A1 --m 1000
status=0
$MCLUSTER verify --type A3 --m 91 || status=$?
test "$status" -eq 2
status=0
$MCLUSTER export-zq --type A32 --window=-1000:1000 > /dev/null || status=$?
test "$status" -eq 2
status=0
$MCLUSTER enumerate --type A3 --m 2 --out /nonexistent/dir/x.json || status=$?
test "$status" -eq 2
