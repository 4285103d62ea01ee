#!/bin/sh
# Repo verification: static checks, build, and the full test suite under
# the race detector (the serving subsystem, predictor, and dataset
# pipeline are exercised concurrently). Usage: scripts/verify.sh
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l cmd internal scripts examples *.go)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi
echo "== go vet =="
go vet ./...
echo "== go build =="
go build ./...
echo "== go test -race =="
# The race detector slows model training ~10x; on a single-core host the
# core suite alone exceeds go test's default 10m budget, so be explicit.
go test -race -timeout 30m ./...
echo "== benchmark module (vet + unit tests + smoke run of every workload) =="
# bench/ is its own Go module over the repo's packages; its smoke test
# compares served predictions with in-process ones, so a break in the
# front end or the server shows up here and not only in the perf runs.
(cd bench && go vet ./... && go test ./...)
echo "== pipeline determinism/race stress (-count=2 to vary scheduling) =="
go test -race -count=2 -run 'TestPipeline(Determinism|RaceStress)|TestGeneratePackageIndependent|TestIndexOrderIndependent' \
	./internal/core ./internal/corpus ./internal/dedup
echo "== eval determinism/race stress (-count=2 to vary scheduling) =="
go test -race -count=2 -run 'TestEvalParallelDeterministic|TestPredictConcurrent|TestValidLossParallelInvariant|TestPredictPooledMatchesReference' \
	./internal/seq2seq
echo "== train determinism/race stress (-count=2 to vary scheduling) =="
go test -race -count=2 -run 'TestFitParallelGolden|TestFitParallelResumeMatchesUninterrupted|TestFitShardedRaceStress' \
	./internal/seq2seq
echo "== batched-predict determinism + server batcher (-count=2 to vary scheduling) =="
go test -race -count=2 -run 'TestPredictBatchedMatchesSequential|TestPredictMultiMixedK|TestBandKernelAVX2Bitwise' \
	./internal/seq2seq ./internal/ad
go test -race -count=2 -run 'TestBatcher|TestServerBatcherStress' ./internal/server
echo "== fuzz seed corpora (no mutation; smoke-checks the native targets) =="
go test -run 'FuzzRead|FuzzDecode|FuzzRoundTrip|FuzzEncodeDecode|FuzzIngest|FuzzPredict' \
	./internal/dwarf ./internal/wasm ./internal/leb128 ./internal/bpe ./internal/ingest ./internal/server
echo "== ingest external eval (train tiny model, j1 == j4 == golden, both encoders) =="
# End-to-end: train a small deterministic predictor, ingest the checked-in
# real-binary set with embedded-DWARF scoring, and require byte-identical
# reports at different worker counts AND against the golden file (training
# and batched decoding are bitwise deterministic). The same gate runs for
# a Transformer-encoder model against its own golden, so both
# architectures' full train-to-report paths are pinned. Regenerate the
# goldens with the same train flags after intentional model/report changes:
#   snowwhite train -packages 6 -epochs 1 -seed 1 -j 2 -checkpoint none -out M
#   snowwhite ingest -model M -dir internal/ingest/testdata -eval -k 5 -j 1 \
#     -out internal/ingest/testdata/golden_eval.json
# and with `train ... -encoder transformer` for golden_eval_transformer.json.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/snowwhite" ./cmd/snowwhite
"$tmp/snowwhite" train -packages 6 -epochs 1 -seed 1 -j 2 -checkpoint none \
	-out "$tmp/model.bin" 2>/dev/null
"$tmp/snowwhite" ingest -model "$tmp/model.bin" -dir internal/ingest/testdata \
	-eval -k 5 -j 1 -out "$tmp/ingest_j1.json" 2>/dev/null
"$tmp/snowwhite" ingest -model "$tmp/model.bin" -dir internal/ingest/testdata \
	-eval -k 5 -j 4 -out "$tmp/ingest_j4.json" 2>/dev/null
cmp "$tmp/ingest_j1.json" "$tmp/ingest_j4.json"
cmp "$tmp/ingest_j1.json" internal/ingest/testdata/golden_eval.json
"$tmp/snowwhite" train -packages 6 -epochs 1 -seed 1 -j 2 -encoder transformer \
	-checkpoint none -out "$tmp/model_tf.bin" 2>/dev/null
"$tmp/snowwhite" ingest -model "$tmp/model_tf.bin" -dir internal/ingest/testdata \
	-eval -k 5 -j 1 -out "$tmp/ingest_tf_j1.json" 2>/dev/null
"$tmp/snowwhite" ingest -model "$tmp/model_tf.bin" -dir internal/ingest/testdata \
	-eval -k 5 -j 4 -out "$tmp/ingest_tf_j4.json" 2>/dev/null
cmp "$tmp/ingest_tf_j1.json" "$tmp/ingest_tf_j4.json"
cmp "$tmp/ingest_tf_j1.json" internal/ingest/testdata/golden_eval_transformer.json
echo "== accuracy budget (quantized f32 engine vs full precision, top-3 >= 99%) =="
# Reuses the tiny models trained above. Per encoder architecture the
# quantized candidate — weights loaded straight into float32 storage and
# decoded on the f32 engine (float32 tapes and 8-lane kernels end to
# end) — must put its top-1 prediction within the full-precision top-3
# on at least 99% of the signature elements in the checked-in eval
# binaries; acctest exits nonzero otherwise. Two candidates per encoder:
# the int8 export round trip (-cand-model), and the in-memory f32
# quantization run twice, whose reports must be byte-identical (the f32
# decode is bitwise deterministic).
for m in model model_tf; do
	"$tmp/snowwhite" export -model "$tmp/$m.bin" -out "$tmp/$m.qbin" -quantize int8 2>/dev/null
	"$tmp/snowwhite" acctest -model "$tmp/$m.bin" -cand-model "$tmp/$m.qbin" \
		-dir internal/ingest/testdata -k 3 -budget 0.99 >"$tmp/acctest_${m}_int8.json" 2>/dev/null
	for run in a b; do
		"$tmp/snowwhite" acctest -model "$tmp/$m.bin" -quantize f32 \
			-dir internal/ingest/testdata -k 3 -budget 0.99 >"$tmp/acctest_${m}_f32_$run.json" 2>/dev/null
	done
	cmp "$tmp/acctest_${m}_f32_a.json" "$tmp/acctest_${m}_f32_b.json"
done
echo "== cache snapshot round-trip determinism (-count=2 to vary scheduling) =="
go test -race -count=2 -run 'TestCacheSnapshotRoundTripDeterminism|TestLRUEntriesOrder|TestCacheLogTornTail' \
	./internal/server
echo "== bench-serve smoke: zero failed requests across a SIGHUP hot swap =="
# Reuses the tiny model trained above: start the server with a persistent
# cache, drive it open-loop at low QPS, hot-swap the model with SIGHUP
# mid-run, and require zero failed requests (the zero-downtime gate).
# After a graceful stop the compacted cache must replay: a second server
# over the same file, stopped untouched, must re-emit a byte-identical
# snapshot (CLI-level persistence determinism).
trap 'rm -rf "$tmp"; [ -n "${serve_pid:-}" ] && kill "$serve_pid" 2>/dev/null || true' EXIT
serve_addr=127.0.0.1:18653
bench_wasm=internal/ingest/testdata/math_debug.wasm
wait_ready() {
	# -ready probes /healthz only: it must not touch the prediction cache,
	# or the untouched-restart snapshot comparison below would see a
	# reordered LRU.
	i=0
	until "$tmp/snowwhite" bench-serve -addr "$serve_addr" -ready >/dev/null 2>&1; do
		i=$((i+1))
		[ "$i" -lt 150 ] || { echo "serve did not become ready"; cat "$tmp/serve.log" 2>/dev/null || true; exit 1; }
		sleep 0.2
	done
}
"$tmp/snowwhite" serve -model "$tmp/model.bin" -addr "$serve_addr" \
	-cache-file "$tmp/serve-cache.jsonl" 2>"$tmp/serve.log" &
serve_pid=$!
wait_ready
"$tmp/snowwhite" bench-serve -addr "$serve_addr" -file "$bench_wasm" \
	-qps 4 -duration 6s -max-failures 0 >/dev/null &
bench_pid=$!
sleep 2
kill -HUP "$serve_pid"
wait "$bench_pid"
kill -TERM "$serve_pid"
wait "$serve_pid" || true
serve_pid=
[ -s "$tmp/serve-cache.jsonl" ] || { echo "no cache snapshot written"; exit 1; }
cp "$tmp/serve-cache.jsonl" "$tmp/serve-cache.before"
"$tmp/snowwhite" serve -model "$tmp/model.bin" -addr "$serve_addr" \
	-cache-file "$tmp/serve-cache.jsonl" 2>>"$tmp/serve.log" &
serve_pid=$!
wait_ready
kill -TERM "$serve_pid"
wait "$serve_pid" || true
serve_pid=
cmp "$tmp/serve-cache.before" "$tmp/serve-cache.jsonl"
echo "verify: OK"
