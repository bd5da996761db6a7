#!/bin/sh
# Tier-1 gate: build, the full test suite with the memory-system fast
# path (the software TLB) on and off and under every other switch, the
# golden E1-E13 transcripts, and the perf benchmarks (which themselves
# assert the simulated cost model is cache-independent).
set -e
cd "$(dirname "$0")/.."

echo "== build =="
dune build

echo "== tests (caches on) =="
dune runtest --force

echo "== tests (caches off: HEMLOCK_NO_TLB) =="
HEMLOCK_NO_TLB=1 dune runtest --force

echo "== tests (linker fast path off: HEMLOCK_NO_SYMHASH + HEMLOCK_NO_PLANCACHE) =="
HEMLOCK_NO_SYMHASH=1 HEMLOCK_NO_PLANCACHE=1 dune runtest --force

echo "== tests (stable linking off: HEMLOCK_NO_STABLELINK) =="
HEMLOCK_NO_STABLELINK=1 dune runtest --force

echo "== tests (copy-on-write off: HEMLOCK_NO_COW) =="
HEMLOCK_NO_COW=1 dune runtest --force

echo "== tests (trace JIT off: HEMLOCK_NO_JIT) =="
HEMLOCK_NO_JIT=1 dune runtest --force

echo "== tests (trace JIT hot: HEMLOCK_JIT_THRESHOLD=1) =="
HEMLOCK_JIT_THRESHOLD=1 dune runtest --force

echo "== tests (demand paging off: HEMLOCK_NO_PAGER) =="
HEMLOCK_NO_PAGER=1 dune runtest --force

echo "== tests (RAM squeezed: HEMLOCK_RAM_PAGES=32) =="
HEMLOCK_RAM_PAGES=32 dune runtest --force

echo "== tests (clusters on 4 domains: HEMLOCK_DOMAINS=4) =="
HEMLOCK_DOMAINS=4 dune runtest --force

echo "== tests (range locks degraded to one big lock: HEMLOCK_NO_RANGELOCK=1) =="
HEMLOCK_NO_RANGELOCK=1 dune runtest --force

echo "== tests (network ideal, pinned: HEMLOCK_NET_PROFILE=ideal) =="
HEMLOCK_NET_PROFILE=ideal dune runtest --force

echo "== tests (network lossy: HEMLOCK_NET_PROFILE=lossy; gate is suite success — loss legitimately changes delivery) =="
HEMLOCK_NET_PROFILE=lossy dune runtest --force

echo "== examples =="
for ex in quickstart rwho_demo parallel_sum figure_editor lynx_tables editor_server; do
  echo "-- examples/$ex"
  dune exec "examples/$ex.exe" > /dev/null
done

# Post-mortem contract: every run's processes have exited (and the
# top-level ones are reaped), yet ldsc still reads the last one's
# exit code and address space, and the linker's per-process link state.
echo "== ldsc post-mortem smoke (README example: exit codes, --layout, --linkstat) =="
smoke=_build/ldsc_smoke
mkdir -p "$smoke"
cat > "$smoke/counter.c" <<'SRC'
int counter;
int bump() { counter = counter + 1; return counter; }
SRC
cat > "$smoke/main.c" <<'SRC'
extern int bump();
int main() {
  print_str("counter -> ");
  print_int(bump());
  print_str("\n");
  return 0;
}
SRC
dune exec bin/ldsc.exe -- run --runs 3 --layout --linkstat \
  "$smoke/main.c" "$smoke/counter.c:dpub" > "$smoke/out.txt"
grep -qx -- "--- run 3 (exit 0) ---" "$smoke/out.txt"
grep -qx "counter -> 3" "$smoke/out.txt"
grep -qx -- "--- address space ---" "$smoke/out.txt"
rows=$(grep -c '^ *{ "pid": ' "$smoke/out.txt")
[ "$rows" -eq 3 ] || { echo "ldsc linkstat: $rows process rows, want 3"; exit 1; }
# Each exited process's row must still carry its provenance counts.
full=$(grep -cE '^ *\{ "pid": .*"n_symbols": [1-9][0-9]*,' "$smoke/out.txt" || true)
[ "$full" -eq 3 ] || { echo "ldsc linkstat: $full of 3 rows have n_symbols > 0"; exit 1; }
echo "ldsc post-mortem output intact"

echo "== crash sweep (deterministic fault plans; gate: recovery fsck clean) =="
dune exec bench/main.exe -- crash-sweep 1 2 3 4 5 6 7 8 9 10

echo "== crash sweep (clusters on 4 domains: HEMLOCK_DOMAINS=4) =="
HEMLOCK_DOMAINS=4 dune exec bench/main.exe -- crash-sweep 1 2 3 4 5 6 7 8 9 10

# Random fault plans draw from Fault.default_sites, which now includes
# net.send / net.deliver; the per-seed cluster burst inside crash-sweep
# exercises them.  A lossy network profile on top must not change the
# recovery verdicts.
echo "== crash sweep (network lossy: HEMLOCK_NET_PROFILE=lossy) =="
HEMLOCK_NET_PROFILE=lossy dune exec bench/main.exe -- crash-sweep 1 2 3 4 5 6 7 8 9 10

# The golden steps below double as the fault-layer-disabled check: the
# injection engine is compiled into every one of these paths but no plan
# is armed, and the transcripts must stay byte-identical to the seed.
echo "== golden transcript (E1-E13) =="
dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13.txt
echo "golden transcript identical"

echo "== golden transcript (linker fast path off) =="
HEMLOCK_NO_SYMHASH=1 HEMLOCK_NO_PLANCACHE=1 \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_nolinkfast.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13_nolinkfast.txt
echo "golden transcript identical without the linker fast path"

echo "== golden transcript (stable linking off) =="
HEMLOCK_NO_STABLELINK=1 \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_nostable.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13_nostable.txt
echo "golden transcript identical without stable linking"

echo "== golden transcript (copy-on-write off) =="
HEMLOCK_NO_COW=1 \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_nocow.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13_nocow.txt
echo "golden transcript identical without copy-on-write"

echo "== golden transcript (trace JIT off) =="
HEMLOCK_NO_JIT=1 \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_nojit.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13_nojit.txt
echo "golden transcript identical without the trace JIT"

echo "== golden transcript (trace JIT hot: HEMLOCK_JIT_THRESHOLD=1) =="
HEMLOCK_JIT_THRESHOLD=1 \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_hotjit.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13_hotjit.txt
echo "golden transcript identical with every block trace-compiled"

echo "== golden transcript (demand paging off) =="
HEMLOCK_NO_PAGER=1 \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_nopager.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13_nopager.txt
echo "golden transcript identical without demand paging"

echo "== golden transcript (RAM squeezed: HEMLOCK_RAM_PAGES=32) =="
HEMLOCK_RAM_PAGES=32 \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_ram32.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13_ram32.txt
echo "golden transcript identical under a 32-page RAM budget"

echo "== golden transcript (single-domain oracle: HEMLOCK_DOMAINS=1) =="
HEMLOCK_DOMAINS=1 \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_dom1.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13_dom1.txt
echo "golden transcript identical on the single-domain oracle"

echo "== golden transcript (clusters on 4 domains: HEMLOCK_DOMAINS=4) =="
HEMLOCK_DOMAINS=4 \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_dom4.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13_dom4.txt
echo "golden transcript identical with clusters spread over 4 domains"

echo "== golden transcript (network ideal, pinned: HEMLOCK_NET_PROFILE=ideal) =="
HEMLOCK_NET_PROFILE=ideal HEMLOCK_NET_SEED=1 \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_netideal.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13_netideal.txt
echo "golden transcript identical with the ideal network pinned"

# Under a lossy profile the experiments must still *complete* (E5's
# cluster deployment pins its own delivery assumptions), but delivery
# differences are legitimate — only the ideal diff gates.
echo "== experiments complete under a lossy network (no golden gate) =="
HEMLOCK_NET_PROFILE=lossy \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_netlossy.txt
echo "experiments completed under HEMLOCK_NET_PROFILE=lossy"

echo "== perf =="
dune exec bench/main.exe -- perf

echo "== perf-link (gates: stable boot >= 5x faster than cold boot, simulated costs identical) =="
dune exec bench/main.exe -- perf-link

echo "== perf-link (single-domain oracle: HEMLOCK_DOMAINS=1) =="
HEMLOCK_DOMAINS=1 dune exec bench/main.exe -- perf-link

echo "== perf-link (clusters on 4 domains: HEMLOCK_DOMAINS=4) =="
HEMLOCK_DOMAINS=4 dune exec bench/main.exe -- perf-link

echo "== perf-vm (gates: program-visible behaviour identical, cow copies <1/4 of eager, >=5x fork throughput) =="
dune exec bench/main.exe -- perf-vm

echo "== perf-jit (gates: simulated costs identical JIT on/off under invalidation stress) =="
dune exec bench/main.exe -- perf-jit

echo "== perf-page (gates: simulated costs identical at every RAM budget and pager off) =="
dune exec bench/main.exe -- perf-page

echo "== perf-cluster (gates: observables and simulated costs identical at 1/2/4 domains) =="
dune exec bench/main.exe -- perf-cluster

# perf-net internally reruns the ideal and lossy scenarios at 1 and 4
# domains and gates trace identity; the two invocations below smoke it
# with the suite's two domain defaults on top.
echo "== perf-net (gates: traffic trace identical at 1/4 domains; all profiles converge) =="
dune exec bench/main.exe -- perf-net

echo "== perf-net (clusters on 4 domains: HEMLOCK_DOMAINS=4) =="
HEMLOCK_DOMAINS=4 dune exec bench/main.exe -- perf-net

echo "== hembench self-test (metric names and units, checks, sabotage, env guard) =="
python3 hembench/run.py --self-test

# A run reports "correct": false when any op fails its check or when its
# billed simulated costs differ from the digest recorded in
# hembench/billed.txt, so billed-cost drift fails here, not only in the
# benchmark pipeline.
echo "== hembench (one untraced seed-1 run per workload; gate: \"correct\": true) =="
bench_spec() { python3 -c "import json; s = json.load(open('BENCHMARK.json')); print($1)"; }
secs=$(bench_spec 's["run_seconds"]')
for w in $(bench_spec '" ".join(w["name"] for w in s["workloads"])'); do
  python3 hembench/run.py --workload "$w" --seed 1 --seconds "$secs" --trace 0 | tail -n 1 \
    | python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.stdin.read())["correct"] else 1)' \
    || { echo "hembench $w: checks failed"; exit 1; }
  echo "hembench $w: correct"
done
