#!/bin/sh
# verify.sh — the repo's full verification chain: formatting, go vet, the
# project's own static verifiers (model + determinism lint), and the test
# suite with the race detector on the internal packages.
set -eu
cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go vet -vettool (determinism analyzers under the go driver)"
vettool=$(mktemp -d)/vcpuvet
go build -o "$vettool" ./cmd/vet
go vet -vettool="$vettool" ./...

echo "== vcpusim vet (determinism lint + shipped model check)"
go run ./cmd/vcpusim vet -config cmd/vcpusim/testdata/fig8.json

echo "== vcpusim vet -structural (boundedness/deadlock proofs + link conformance)"
go run ./cmd/vcpusim vet -structural >/dev/null
go run ./cmd/vcpusim vet -structural -config cmd/vcpusim/testdata/fig8.json >/dev/null

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== perfbench module: go vet + go test (nested module, outside the root ./...)"
(cd perfbench && go vet ./... && go test ./...)

echo "== go test -race ./internal/..."
go test -race ./internal/...

echo "== pooled-determinism gate (goldens + pooled/fresh equivalence, uncached)"
go test -run 'Golden|PooledEquivalence' -count=1 ./internal/core ./internal/san ./internal/experiments

echo "== observability gate (manifest write + schema/counter validation)"
obsdir=$(mktemp -d)
trap 'rm -rf "$obsdir"' EXIT
go run ./cmd/vcpusim experiments -figure 8 -quick -manifest "$obsdir" >/dev/null
go run ./cmd/vcpusim manifest -check "$obsdir/manifest.json"

echo "== deep-inspection gate (trace byte determinism + probe series hashes)"
go run ./cmd/vcpusim trace -config cmd/vcpusim/testdata/fig8.json -horizon 400 \
    -out "$obsdir/trace.json" -probe "$obsdir/series.csv" >/dev/null
go run ./cmd/vcpusim trace -config cmd/vcpusim/testdata/fig8.json -horizon 400 \
    -out "$obsdir/trace2.json" -probe "$obsdir/series2.csv" >/dev/null
cmp "$obsdir/trace.json" "$obsdir/trace2.json"
cmp "$obsdir/series.csv" "$obsdir/series2.csv"
probedir=$(mktemp -d)
go run ./cmd/vcpusim experiments -figure 8 -quick -engine san -hist \
    -probe "$probedir/series" -manifest "$probedir" >/dev/null
go run ./cmd/vcpusim manifest -check "$probedir/manifest.json"
rm -rf "$probedir"

echo "== bench smoke (./bench.sh smoke)"
./bench.sh smoke

echo "verify.sh: all checks passed"
