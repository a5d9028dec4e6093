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
# This includes the CLI's end-to-end tests (cmd/shine): each popularity
# backend through snapshot build, inspect, link and annotate, and a
# served artifact linking over /v1/link and /v1/link/batch before and
# after `shine update`, then draining on SIGTERM.
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
