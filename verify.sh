#!/bin/sh
# Tier-1 verification gate: build, vet, and test with the race
# detector. Every PR must pass this; the concurrent server tests only
# mean something under -race.
set -eux
cd "$(dirname "$0")"
# Every Go file must be gofmt-clean; the list of offenders must be empty.
test -z "$(gofmt -l .)"
go build ./...
go vet ./...
go test -race ./...
# The benchmark harness is its own module (bench/go.mod), so the
# commands above skip it. Vet it and run its smoke test, which serves
# both workloads over loopback HTTP and checks every answer against
# the in-process oracle, offline as bench/run.sh builds it.
GOTOOLCHAIN=local GOPROXY=off go -C bench vet ./...
GOTOOLCHAIN=local GOPROXY=off go -C bench test ./...
# Smoke the serving-path, offline-pipeline, snapshot, candidate-index,
# streaming, incremental-update, centrality-backend, annotation and
# walk-kernel benchmarks (one iteration each) so they cannot rot
# between perf PRs; real numbers live in BENCH_link.json,
# BENCH_offline.json, BENCH_snapshot.json, BENCH_candidates.json,
# BENCH_stream.json, BENCH_incremental.json and BENCH_centrality.json,
# and the end-to-end numbers come from bench/run.sh.
go test -run=NONE -bench='Link|PageRank|Build|Snapshot|Candidates|Stream|Delta|WarmStart|Centrality|Annotate|Walk|Precompute' -benchtime=1x .
# Centrality-backend contract: the four-backend comparison harness
# (McNemar against the pagerank baseline) must keep its shape.
go test -run TestCentralityComparisonShape ./internal/experiments/
# Route/metrics contract guard: every /v1 route answers wrong methods
# with 405 + Allow, and the request-lifecycle series are present in
# the /metrics exposition from the first scrape.
go test -race -run 'TestMethodEnforcement|TestMetricsLifecycleSeries' ./internal/server/
# Fuzz smokes, five seconds each: the snapshot reader must never panic
# or over-allocate on hostile headers; the name parser must keep its
# invariants on arbitrary bytes; every trie lookup mode must stay
# equivalent to (or a superset of) the brute-force oracle; the NDJSON
# batch-line parser must never panic or accept an empty mention; the
# delta-op parser must only ever stage patches that merge into a graph
# passing Validate with a live degree cache.
go test -fuzz=FuzzReadBytes -fuzztime=5s -run=FuzzReadBytes ./internal/snapshot/
go test -fuzz=FuzzParse -fuzztime=5s -run=FuzzParse ./internal/namematch/
go test -fuzz=FuzzTrieLookup -fuzztime=5s -run=FuzzTrieLookup ./internal/surftrie/
go test -fuzz=FuzzNDJSONLine -fuzztime=5s -run=FuzzNDJSONLine ./internal/server/
go test -fuzz=FuzzDeltaPatch -fuzztime=5s -run=FuzzDeltaPatch ./internal/server/
# Snapshot CLI round trip: build an artifact from a generated dataset,
# inspect it, link from it and annotate from it — the binary boot path
# end to end. Runs once per popularity backend: inspect must report the
# backend that built the artifact, link must serve from it, and
# annotate must find and link mentions in raw text with it.
SNAPTMP=$(mktemp -d)
trap 'rm -rf "$SNAPTMP"' EXIT
go build -o "$SNAPTMP/shine" ./cmd/shine
"$SNAPTMP/shine" gen -graph "$SNAPTMP/g.hin" -docs "$SNAPTMP/d.json" -seed 7 -authors 40 -numdocs 20
for BACKEND in pagerank degree hits ppr; do
  "$SNAPTMP/shine" snapshot build -graph "$SNAPTMP/g.hin" -docs "$SNAPTMP/d.json" \
    -popularity "$BACKEND" -out "$SNAPTMP/m-$BACKEND.snap"
  "$SNAPTMP/shine" snapshot inspect "$SNAPTMP/m-$BACKEND.snap" | grep "centrality=$BACKEND"
  "$SNAPTMP/shine" link -snapshot "$SNAPTMP/m-$BACKEND.snap" -popularity "$BACKEND" \
    -docs "$SNAPTMP/d.json" | tail -1
  head -3 "$SNAPTMP/d.json" |
    "$SNAPTMP/shine" annotate -snapshot "$SNAPTMP/m-$BACKEND.snap" -popularity "$BACKEND" |
    grep '^\['
done
# A backend mismatch between artifact and flags must refuse to serve.
if "$SNAPTMP/shine" link -snapshot "$SNAPTMP/m-degree.snap" -popularity hits -docs "$SNAPTMP/d.json"; then
  echo "mismatched -popularity accepted" >&2; exit 1
fi
ln -s "$SNAPTMP/m-pagerank.snap" "$SNAPTMP/m.snap"
# Loadgen smoke: boot a server from the artifact and push the same
# synthetic documents through /v1/link and the /v1/link/batch NDJSON
# stream over real HTTP. -max-failures 0 makes any unlinked document,
# truncated stream or missing summary trailer fail the gate.
SERVEPORT=$((19500 + $$ % 500))   # per-run port: a stale server can't shadow us
"$SNAPTMP/shine" serve -snapshot "$SNAPTMP/m.snap" -addr "127.0.0.1:$SERVEPORT" >"$SNAPTMP/serve.log" 2>&1 &
SERVEPID=$!
trap 'kill "$SERVEPID" 2>/dev/null; rm -rf "$SNAPTMP"' EXIT
sleep 1
# A dead server here means the boot failed or the port is taken —
# either way loadgen would test the wrong thing, so fail loudly with
# the server's own log.
kill -0 "$SERVEPID" || { cat "$SNAPTMP/serve.log"; exit 1; }
"$SNAPTMP/shine" loadgen -addr "http://127.0.0.1:$SERVEPORT" -docs 200 -concurrency 4 \
  -warmup 10 -seed 7 -authors 40 -numdocs 20 -wait-ready 30s -max-failures 0 \
  -json "$SNAPTMP/loadgen.json"
# Incremental-update smoke: push a self-contained NDJSON delta (new
# author + paper + venue with edges among them) through the update CLI
# and POST /v1/admin/update — a non-200 fails the gate — then replay
# the load against the swapped-in generation to prove it still serves.
cat >"$SNAPTMP/delta.ndjson" <<'NDJSON'
{"op":"object","type":"author","name":"Delta Smoke Author"}
{"op":"object","type":"venue","name":"Delta Smoke Venue"}
{"op":"object","type":"paper","name":"delta smoke paper"}
{"op":"edge","rel":"write","src":{"type":"author","name":"Delta Smoke Author"},"dst":{"type":"paper","name":"delta smoke paper"}}
{"op":"edge","rel":"publish","src":{"type":"venue","name":"Delta Smoke Venue"},"dst":{"type":"paper","name":"delta smoke paper"}}
NDJSON
"$SNAPTMP/shine" update -addr "http://127.0.0.1:$SERVEPORT" -in "$SNAPTMP/delta.ndjson"
"$SNAPTMP/shine" loadgen -addr "http://127.0.0.1:$SERVEPORT" -docs 50 -concurrency 4 \
  -seed 7 -authors 40 -numdocs 20 -wait-ready 10s -max-failures 0
kill "$SERVEPID"
