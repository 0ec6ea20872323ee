#!/usr/bin/env bash
# The console-script checks that CI runs after `pip install .`: exit codes,
# outputs and peak RSS of the `mcluster` command, one check a line.  The
# command is read from MCLUSTER (default `mcluster`), split into words, so
# that a checkout can run the same lines without installing:
#
#   MCLUSTER="python -m mclusters.cli" PYTHONPATH=src bash -eo pipefail tests/ci_console.sh
#
# It writes err.txt and ext.txt in the working directory.
set -eo pipefail
MCLUSTER=${MCLUSTER:-mcluster}
python -c "import sys, mclusters.cli; loaded = {'dataclasses', 'mclusters.quiver_rep'} & set(sys.modules); assert not loaded, loaded"
python -c "import mclusters.cli as cli, mclusters.root_system as r; built = cli._parser.cache_info().currsize, r._diagram.cache_info().currsize; assert built == (0, 0), f'{built} parsers and diagrams built at import'"
python -c "import mclusters.cli as cli, mclusters.root_system as r; codes = [cli.main([c, '--type', t, '--', '-e1', '-e2']) for c, t in zip(('compat', 'ext') * 5, ('A6', 'D6', 'E6', 'E7', 'E8') * 2)]; built = r._diagram.cache_info().currsize, cli._parser.cache_info().currsize; assert codes == [0] * 10 and built == (5, 1), (codes, built)" > /dev/null
$MCLUSTER verify --type D4 --m 2
$MCLUSTER verify --type E7 --m 2
$MCLUSTER verify --type E8 --m 1
$MCLUSTER verify --type E8 --m 2
python -c "import resource, mclusters.cli as cli; assert cli.main(['enumerate', '--type', 'E7', '--m', '2', '--out', '/dev/null']) == 0; peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; assert peak < 32 * 1024, f'enumerate E7 m=2 peaked at {peak} KiB'"
$MCLUSTER enumerate --type A3 --m 2 --oracle both > /dev/null
$MCLUSTER compat --type E8 --m 3 -- 2,4,6,5,4,3,2,3:2 -e1
test "$($MCLUSTER compat --type E8 --m 1 -- 2,4,6,5,4,3,2,3 -e3)" = \
  "combinatorial: incompatible  categorical: incompatible  degree: 6"
status=0
$MCLUSTER compat --type A2 -- 1,1:x -e1 || status=$?
test "$status" -eq 2
status=0
$MCLUSTER enumerate --type E6 --m 2 2>err.txt | head -c 100 >/dev/null || status=$?
test "$status" -eq 1
test ! -s err.txt
status=0
$MCLUSTER verify --type A2.0 || status=$?
test "$status" -eq 2
test "$($MCLUSTER ext --type E8 --m 3 -- 2,4,6,5,4,3,2,3:2 0,1,2,2,1,1,1,1:3)" = \
  "$(printf 'Ext^%s(V(2,4,6,5,4,3,2,3)[1], V(0,1,2,2,1,1,1,1)[2]) = %s\n' 1 0 2 0 3 3)"
$MCLUSTER ext --type A2 --m 1000 -- 1,1:1000 1,0:3 > ext.txt
test "$(wc -l < ext.txt)" -eq 1000
test "$(grep -v ' = 0$' ext.txt)" = "Ext^997(V(1,1)[999], V(1,0)[2]) = 1"
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
python -c "import resource, mclusters.cli as cli; assert cli.main(['verify', '--type', 'A2', '--m', '1000']) == 0; peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; assert peak < 56 * 1024, f'verify A2 m=1000 peaked at {peak} KiB'"
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
