#!/usr/bin/env sh
# Append a serving-tier benchmark snapshot to the BENCH_dist.json series: one
# record per invocation, keyed by git SHA and UTC date, appended (never
# overwritten) alongside the distributed-loop records so the read tier's
# trajectory lives in the same series.
#
# The record carries the four serving numbers that matter:
#   - qps:   end-to-end HTTP query throughput (BenchmarkServeHTTP, concurrent
#            clients over real TCP);
#   - p99_us: the 99th-percentile end-to-end query latency of that run;
#   - snapshot_flip_ns: publish-to-visible latency — inverted index patch
#     plus the RCU pointer flip — when every row changes between versions
#     (BenchmarkSnapshotFlip), i.e. the worst case for the patch;
#   - snapshot_patch_ns: the same latency when 5% of rows change per version
#     (BenchmarkSnapshotFlipSparse), the share training actually rewrites.
#
# Usage: scripts/bench_serve.sh [benchtime] [fliptime]   (default 2000x / 20x)
set -eu
cd "$(dirname "$0")/.."
BENCHTIME="${1:-2000x}"
FLIPTIME="${2:-20x}"

http="$(go test ./internal/serve/ -run NONE -bench BenchmarkServeHTTP \
	-benchtime "$BENCHTIME" -count 1)"
echo "$http"

flip="$(go test ./internal/serve/ -run NONE -bench 'BenchmarkSnapshotFlip(Sparse)?$' \
	-benchtime "$FLIPTIME" -count 1)"
echo "$flip"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

GIT_SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

# Benchmark lines with b.ReportMetric carry "value unit" pairs after ns/op:
# harvest the metrics by unit name rather than by column position.
{
	{ echo "$http"; echo "$flip"; } | awk -v git_sha="$GIT_SHA" -v date="$DATE" \
		-v benchtime="$BENCHTIME" -v fliptime="$FLIPTIME" '
		/^Benchmark(ServeHTTP|SnapshotFlip)/ {
			for (i = 2; i < NF; i++) {
				if ($(i + 1) == "qps") qps = $i
				if ($(i + 1) == "p99_us") p99 = $i
				if ($(i + 1) == "ns/op" && $1 ~ /^BenchmarkSnapshotFlip(-[0-9]+)?$/) flip_ns = $i
				if ($(i + 1) == "ns/op" && $1 ~ /^BenchmarkSnapshotFlipSparse(-[0-9]+)?$/) patch_ns = $i
			}
		}
		/^cpu:/ { sub(/^cpu: /, ""); cpu = $0 }
		END {
			if (qps == "" || p99 == "" || flip_ns == "" || patch_ns == "") {
				print "bench_serve: FAIL: missing metric (qps=" qps " p99_us=" p99 " flip_ns=" flip_ns " patch_ns=" patch_ns ")" > "/dev/stderr"
				exit 1
			}
			printf "  {\n"
			printf "    \"git_sha\": \"%s\",\n", git_sha
			printf "    \"date\": \"%s\",\n", date
			printf "    \"benchmark\": \"BenchmarkServeHTTP\",\n"
			printf "    \"config\": {\"vertices\": 100000, \"k\": 64, \"clients\": 8, \"topk\": 10},\n"
			printf "    \"benchtime\": \"%s\", \"fliptime\": \"%s\",\n", benchtime, fliptime
			printf "    \"cpu\": \"%s\",\n", cpu
			printf "    \"qps\": %s,\n", qps
			printf "    \"p99_us\": %s,\n", p99
			printf "    \"snapshot_flip_ns\": %s,\n", flip_ns
			printf "    \"snapshot_patch_ns\": %s\n", patch_ns
			printf "  }\n"
		}
	'
} > "$tmp/record.json"

# Append to the series, same idiom as bench_dist.sh: drop the closing "]",
# comma-join, re-close; a missing or pre-series file starts a fresh array.
if [ -s BENCH_dist.json ] && [ "$(head -c 1 BENCH_dist.json)" = "[" ]; then
	sed '$d' BENCH_dist.json | sed '$s/$/,/' > "$tmp/series.json"
else
	printf '[\n' > "$tmp/series.json"
fi
cat "$tmp/record.json" >> "$tmp/series.json"
printf ']\n' >> "$tmp/series.json"
mv "$tmp/series.json" BENCH_dist.json

echo "appended serve record $GIT_SHA to BENCH_dist.json:"
cat "$tmp/record.json"
