// Command ocdbench is the repository benchmark: it generates seeded inputs,
// runs one workload end to end through the public APIs of gen, graph, core,
// dist, transport, store and serve, checks the outputs, and prints one JSON
// result line.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash ocdbench/run.sh --workload fit-local --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// every tracing hook off; CPU-bound timings are scaled for hypervisor steal
// (see stealSince). With --trace 1 it is a separate traced run that carries
// the per-layer metrics and writes a Chrome trace-event file under
// .bench_build/. The last line of standard output is always the JSON result;
// a failed correctness check still prints it (correct=false) and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workloads maps each --workload name to its runner. Why each exists is
// recorded in BENCHMARK.json and beside each spec.
var workloads = map[string]func(*run) error{
	"fit-local":       runFitLocal,
	"fit-dist":        runFitDist,
	"outofcore-serve": runOutOfCoreServe,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fit-local, fit-dist or outofcore-serve")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "measurement time budget in seconds")
		traced  = flag.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = traced run with per-layer metrics")
		workDir = flag.String("workdir", ".bench_build", "directory for generated inputs, π shards and trace files")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "ocdbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	r, err := newRun(*name, *seed, *seconds, *traced == 1, *workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ocdbench:", err)
		os.Exit(2)
	}
	err = fn(r)
	r.close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ocdbench: %s: %v\n", *name, err)
		os.Exit(2)
	}
	fmt.Println("# stamp", r.stamp())
	for _, c := range r.checkFailures {
		fmt.Fprintln(os.Stderr, "ocdbench: correctness check failed:", c)
	}
	out, err := json.Marshal(r.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "ocdbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if len(r.checkFailures) > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload invocation shares with its helpers.
type run struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	dir      string // private scratch directory, removed by close

	spans         *spanLog // the benchmark's own layer spans; nil when untraced
	ticks         cpuTicks // machine CPU accounting when the run started, for set-up's steal share
	metrics       map[string]metric
	attempted     int64
	failed        int64
	checkFailures []string
}

func newRun(workload string, seed uint64, seconds int, traced bool, workDir string) (*run, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-"+workload+"-")
	if err != nil {
		return nil, err
	}
	r := &run{
		workload: workload, seed: seed, seconds: seconds, traced: traced, dir: dir,
		metrics: map[string]metric{}, ticks: readCPUTicks(),
	}
	if traced {
		r.spans = newSpanLog()
	}
	return r, nil
}

func (r *run) close() { os.RemoveAll(r.dir) }

// set records a metric. Traced runs report only per-layer names and untraced
// runs only end-to-end names; set enforces the split so a workload cannot
// leak a traced number into the end-to-end result.
func (r *run) set(name, unit string, v float64) {
	if _, ok := layerUnits[name]; ok != r.traced {
		return
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed correctness check when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.checkFailures = append(r.checkFailures, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation and whether it failed.
func (r *run) op(failed bool) {
	r.attempted++
	if failed {
		r.failed++
	}
}

// tracePath is where a traced run writes its Chrome trace-event file: beside
// the run's scratch directory, so it outlives close.
func (r *run) tracePath() string {
	return filepath.Join(filepath.Dir(r.dir), fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
}

func (r *run) result() result {
	steal := stealSince(r.ticks)
	fmt.Printf("# steal share over the run: %.4f\n", steal)
	r.set("proc.steal_frac", "ratio", steal)
	if !r.traced {
		r.set("ops_ok_frac", "ratio", 1-float64(r.failed)/float64(max(r.attempted, 1)))
	}
	want := endToEndUnits
	if r.traced {
		want = layerUnits
	}
	for name, unit := range want {
		if _, ok := r.metrics[name]; !ok {
			r.check(false, "metric %s was not measured", name)
			r.metrics[name] = metric{Value: 0, Unit: unit}
		}
		if got := r.metrics[name].Unit; got != unit {
			r.check(false, "metric %s reported in %s, want %s", name, got, unit)
		}
	}
	return result{
		Correct:   len(r.checkFailures) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// stamp describes the machine and build the numbers came from.
func (r *run) stamp() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	sha := os.Getenv("OCDBENCH_GIT_SHA")
	if sha == "" {
		sha = "unknown"
	}
	doc, _ := json.Marshal(map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds,
		"traced":     r.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"git_sha":    sha,
	})
	return string(doc)
}

// endToEndUnits lists every end-to-end metric with its unit; BENCHMARK.json
// declares the same set.
var endToEndUnits = map[string]string{
	"setup_s":              "s",
	"time_to_target_s":     "s",
	"iters_per_s":          "1/s",
	"heldout_perplexity":   "perplexity",
	"f1_planted":           "score",
	"nmi_distance_planted": "score",
	"peak_rss_mib":         "MiB",
	"query_ms_p50":         "ms",
	"publish_ms_p50":       "ms",
	"ops_ok_frac":          "ratio",
}

// layerUnits lists every per-layer metric of the traced run with its unit.
var layerUnits = map[string]string{
	"core.step_ms_p50":                         "ms",
	"core.step_ms_p99":                         "ms",
	"core.eval_ms":                             "ms",
	"core.update_phi_ns_per_vertex":            "ns",
	"core.allocs_per_step":                     "count",
	"core.alloc_bytes_per_step":                "bytes",
	"engine.draw_minibatch_ms":                 "ms",
	"engine.update_phi.load_pi_ms":             "ms",
	"engine.update_phi.compute_ms":             "ms",
	"engine.update_pi_ms":                      "ms",
	"engine.update_beta_theta_ms":              "ms",
	"engine.perplexity_ms":                     "ms",
	"engine.barrier_ms":                        "ms",
	"engine.publish_ms":                        "ms",
	"store.rows_read_per_iter":                 "count",
	"store.read_us_per_row":                    "us",
	"store.write_ms_per_iter":                  "ms",
	"store.flush_ms_per_iter":                  "ms",
	"store.tier.hot_hit_ratio":                 "ratio",
	"store.snapshot_ms_p50":                    "ms",
	"store.snapshot_mib":                       "MiB",
	"store.dkv_cache_hit_ratio":                "ratio",
	"dkv.remote_keys_per_iter":                 "count",
	"dkv.requests_per_iter":                    "count",
	"dkv.read_mib_per_iter":                    "MiB",
	"dkv.client_wait_ms_per_iter":              "ms",
	"dkv.serve_queue_ms_per_iter":              "ms",
	"transport.msgs_per_iter":                  "count",
	"transport.mib_per_iter":                   "MiB",
	"transport.recv_wait_ms_per_iter":          "ms",
	"cluster.collective_ms_per_iter":           "ms",
	"serve.engine_query_us_p50":                "us",
	"serve.engine_query_us_p99":                "us",
	"serve.query_ms_p99":                       "ms",
	"serve.flip_ms_p50":                        "ms",
	"serve.snapshot_age_ms_p50":                "ms",
	"serve.loadgen_late_ms_p99":                "ms",
	"proc.minor_faults_per_iter":               "count",
	"proc.major_faults":                        "count",
	"proc.gc_cpu_frac":                         "ratio",
	"proc.heap_peak_mib":                       "MiB",
	"proc.steal_frac":                          "ratio",
	"setup.graph_s":                            "s",
	"setup.pi_init_s":                          "s",
	"setup.mesh_s":                             "s",
	"trace.overhead_pct":                       "%",
	"perfmodel.draw_minibatch.residual_pct":    "%",
	"perfmodel.deploy_minibatch.residual_pct":  "%",
	"perfmodel.update_phi.residual_pct":        "%",
	"perfmodel.update_pi.residual_pct":         "%",
	"perfmodel.update_beta_theta.residual_pct": "%",
}
