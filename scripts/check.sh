#!/usr/bin/env bash
# Tier-1 verification gate. Every PR must pass this script unchanged:
#
#   ./scripts/check.sh
#
# It runs a gofmt check (any file `gofmt -l` lists fails), vet (of the
# root module and of the separate perfbench module), a full build, the
# full test suite, and — because the litmus enumerator and its memoization
# cache are concurrent subsystems — the race detector over the packages
# that exercise them. Two rel-engine stages ride
# along: the -tags relmap differential run proves the reference map engine
# still satisfies the whole memmodel/models/litmus stack (so the default
# bitset engine is pinned against it), and a one-iteration bench smoke keeps
# scripts/bench_snapshot.sh and the benchmarks it snapshots compiling. The
# explore stages pin the operational exploration engine: DPOR must reach
# every allowed SB outcome, budget-exhausted traces must replay
# byte-identically, and a corpus walk plus a ≥500-test generated campaign
# must find zero axiomatic-disallowed outcomes.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || { echo "gofmt needed on:" >&2; echo "$unformatted" >&2; exit 1; }

echo "==> go vet ./..."
go vet ./...

# perfbench is a module of its own, so the root build and vet skip it;
# vetting it here catches an API change that would break the benchmark.
echo "==> (cd perfbench && go vet ./...)"
(cd perfbench && go vet ./...)

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go vet ./internal/obs/ ./internal/cliflags/"
go vet ./internal/obs/ ./internal/cliflags/

echo "==> go test -race ./internal/obs/ ./internal/litmus/... ./internal/mapping/..."
go test -race ./internal/obs/ ./internal/litmus/... ./internal/mapping/...

echo "==> fault matrix: go test ./... -run Fault -count=1"
go test ./... -run Fault -count=1

echo "==> fault matrix (race): go test -race ./internal/faultmatrix/ ./internal/core/ -run Fault -count=1"
go test -race ./internal/faultmatrix/ ./internal/core/ -run Fault -count=1

echo "==> litmusctl fault smoke"
go run ./cmd/litmusctl -workers 4 -fault cache-exhaust corpus >/dev/null
go run ./cmd/litmusctl -workers 4 -fault shard-panic corpus >/dev/null

echo "==> selfheal: workload suite under -selfcheck"
for k in histogram wordcount kmeans swaptions canneal; do
	go run ./cmd/risotto -kernel "$k" -threads 2 -selfcheck >/dev/null
done

echo "==> selfheal: injected miscompile is detected and recovered"
go run ./cmd/risotto -kernel histogram -threads 2 -fault miscompile -selfcheck \
	-metrics json | grep -Eq '"core\.selfheal\.quarantines": *[1-9]' \
	|| { echo "selfheal run recorded no quarantine" >&2; exit 1; }

echo "==> selfheal: crash bundle replays byte-identically"
SH_TMP=$(mktemp -d)
trap 'rm -rf "$SH_TMP"' EXIT
go build -o "$SH_TMP/risotto" ./cmd/risotto
code=0
"$SH_TMP/risotto" -kernel histogram -threads 2 -fault decode@3 \
	-bundle "$SH_TMP/crash.json" 2>/dev/null || code=$?
[ "$code" -eq 3 ] || { echo "trapped run exited $code, want 3" >&2; exit 1; }
"$SH_TMP/risotto" -replay "$SH_TMP/crash.json" -bundle "$SH_TMP/crash2.json" >/dev/null
cmp "$SH_TMP/crash.json" "$SH_TMP/crash2.json" \
	|| { echo "replay re-bundle differs from original" >&2; exit 1; }

echo "==> tierup smoke: hot-block promotion across the workload suite"
for k in histogram wordcount kmeans swaptions canneal; do
	go run ./cmd/risotto -kernel "$k" -threads 2 -scale 2 -tierup -promote-threshold 4 \
		-metrics json | grep -Eq '"core\.selfheal\.promotions": *[1-9]' \
		|| { echo "tierup run of $k recorded no promotion" >&2; exit 1; }
done

echo "==> tierup smoke: superblocks recover cross-block fence merges on fencechain"
go run ./cmd/risotto -kernel fencechain -threads 2 -scale 2 -tierup -promote-threshold 4 \
	-metrics json | grep -Eq '"tcg\.fence_merges_cross_block": *[1-9]' \
	|| { echo "fencechain superblocks merged no cross-block fences" >&2; exit 1; }

echo "==> tierup smoke: miscompile under promotion demotes and still computes the right result"
want=$(go run ./cmd/risotto -kernel kmeans -threads 2 -scale 2 | awk '/^checksum/{print $2}')
got=$(go run ./cmd/risotto -kernel kmeans -threads 2 -scale 2 -tierup -promote-threshold 4 \
	-fault miscompile -selfheal | awk '/^checksum/{print $2}')
[ "$got" = "$want" ] || { echo "faulted tierup checksum $got != $want" >&2; exit 1; }
go run ./cmd/risotto -kernel kmeans -threads 2 -scale 2 -tierup -promote-threshold 4 \
	-fault miscompile -selfheal -metrics json >"$SH_TMP/tierup.json"
grep -Eq '"core\.selfheal\.promotions": *[1-9]' "$SH_TMP/tierup.json" \
	|| { echo "faulted tierup run recorded no promotion" >&2; exit 1; }
grep -Eq '"core\.selfheal\.quarantines": *[1-9]' "$SH_TMP/tierup.json" \
	|| { echo "faulted tierup run recorded no quarantine" >&2; exit 1; }

echo "==> tierup (race): go test -race ./internal/core/ -run TierUp -count=1"
go test -race ./internal/core/ -run TierUp -count=1

echo "==> metrics snapshot validates (risotto -metrics json | obsvalidate)"
go run ./cmd/risotto -kernel histogram -threads 2 -metrics json | go run ./cmd/obsvalidate >/dev/null

echo "==> campaign smoke: seeded generated-corpus campaign, all verdicts pass"
go run ./cmd/litmusctl -workers 4 -metrics json campaign \
	-out "$SH_TMP/campaign.jsonl" -max-per-shape 6 -opcheck-seeds 2 \
	| go run ./cmd/obsvalidate >/dev/null
grep -q '"format":"risotto-campaign/v1"' "$SH_TMP/campaign.jsonl" \
	|| { echo "campaign results file lacks the v1 header" >&2; exit 1; }

echo "==> explore smoke: DPOR reaches full SB coverage and traces replay byte-identically"
go run ./cmd/litmusctl explore -mode dpor SB >"$SH_TMP/explore-sb.txt"
grep -q "4/4 (100%)" "$SH_TMP/explore-sb.txt" \
	|| { echo "DPOR on SB missed allowed outcomes" >&2; cat "$SH_TMP/explore-sb.txt" >&2; exit 1; }
go run ./cmd/litmusctl explore -mode dpor -max-states 64 -trace-out "$SH_TMP/sb.trace" SB >/dev/null
go run ./cmd/litmusctl explore -mode replay -trace "$SH_TMP/sb.trace" | grep -q "byte-identical" \
	|| { echo "budget-exhausted trace did not replay byte-identically" >&2; exit 1; }

echo "==> explore soak: corpus walk + ≥500-test generated campaign, zero violations"
go run ./cmd/litmusctl explore -out "$SH_TMP/soak.jsonl" 2>/dev/null
grep -q '"format":"risotto-explore/v1"' "$SH_TMP/soak.jsonl" \
	|| { echo "soak results file lacks the v1 header" >&2; exit 1; }
go run ./cmd/litmusctl -workers 4 campaign -out "$SH_TMP/explore-campaign.jsonl" \
	-max-per-shape 32 -opcheck-seeds 1 -explore-seeds 4 2>"$SH_TMP/explore-campaign.log" \
	|| { echo "explore campaign failed" >&2; cat "$SH_TMP/explore-campaign.log" >&2; exit 1; }
tests=$(grep -c '"explore":"pass"' "$SH_TMP/explore-campaign.jsonl" || true)
[ "${tests:-0}" -ge 500 ] || { echo "explore campaign passed the explore check on only ${tests:-0} tests, want ≥500" >&2; exit 1; }

echo "==> daemon smoke: risottod serve/submit/snapshot/drain cycle"
go build -o "$SH_TMP/risottod" ./cmd/risottod
"$SH_TMP/risottod" -listen 127.0.0.1:0 -addr-file "$SH_TMP/addr" \
	-cache "$SH_TMP/cache.jsonl" 2>"$SH_TMP/daemon.log" &
DAEMON=$!
for _ in $(seq 1 100); do [ -s "$SH_TMP/addr" ] && break; sleep 0.05; done
[ -s "$SH_TMP/addr" ] || { echo "risottod never wrote its address" >&2; exit 1; }
ADDR=$(cat "$SH_TMP/addr")
"$SH_TMP/risottod" -submit -addr "$ADDR" -tenant smoke -kernel histogram -threads 2 >/dev/null \
	|| { echo "clean daemon job failed" >&2; exit 1; }
code=0
"$SH_TMP/risottod" -submit -addr "$ADDR" -tenant smoke -kernel histogram \
	-step-budget 5000 >"$SH_TMP/trap.json" 2>/dev/null || code=$?
[ "$code" -eq 3 ] || { echo "step-budget daemon job exited $code, want 3" >&2; exit 1; }
grep -q '"bundle"' "$SH_TMP/trap.json" \
	|| { echo "trapped daemon job carries no crash bundle" >&2; exit 1; }
"$SH_TMP/risottod" -snapshot -addr "$ADDR" | go run ./cmd/obsvalidate >/dev/null \
	|| { echo "daemon metrics snapshot failed validation" >&2; exit 1; }
kill -TERM "$DAEMON"
code=0
wait "$DAEMON" || code=$?
[ "$code" -eq 0 ] || { echo "risottod drain exited $code (log follows)" >&2; cat "$SH_TMP/daemon.log" >&2; exit 1; }
grep -q "drained cleanly" "$SH_TMP/daemon.log" \
	|| { echo "risottod did not report a clean drain" >&2; exit 1; }

echo "==> matrix smoke: litmusctl matrix (verified routes pass, QEMU cells still fail)"
go run ./cmd/litmusctl matrix >"$SH_TMP/matrix.txt" \
	|| { echo "litmusctl matrix exited non-zero (a verified route failed)" >&2; cat "$SH_TMP/matrix.txt" >&2; exit 1; }
grep -q "all verified routes pass" "$SH_TMP/matrix.txt" \
	|| { echo "matrix lost the verified-routes-pass line" >&2; exit 1; }
grep -q "x86→tcg/qemu + tcg→arm/qemu-casal *known-bad FAIL .*MPQ" "$SH_TMP/matrix.txt" \
	|| { echo "matrix no longer reproduces the §3.1 casal failure on MPQ" >&2; exit 1; }
grep -q "tcg→arm/qemu-lxsx *known-bad FAIL .*SBQ" "$SH_TMP/matrix.txt" \
	|| { echo "matrix no longer reproduces the §3.2 exclusive-pair failure on SBQ" >&2; exit 1; }

echo "==> rel engine differential: go test -tags relmap (map engine over the full stack)"
go test -tags relmap ./internal/rel/ ./internal/memmodel/ ./internal/models/... \
	./internal/litmus/ ./internal/mapping/... ./internal/opcheck/

echo "==> bench smoke: scripts/bench_snapshot.sh (one short iteration)"
BENCHTIME=1x ./scripts/bench_snapshot.sh "$(mktemp)"

echo "OK"
