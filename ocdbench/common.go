package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mathx"
	ocdmetrics "repro/internal/metrics"
	"repro/internal/store"
)

// graphSpec sizes one planted input graph.
type graphSpec struct {
	n, communities, edges int
	// heldDiv holds out |E|/heldDiv links for perplexity.
	heldDiv int
}

// genGraph writes the seeded planted graph as an edge file (the form every
// workload loads from, keeping generator vertex ids) and returns its path and
// ground truth. Input generation is not part of any timed phase.
func genGraph(r *run, spec graphSpec, seed uint64) (string, *gen.GroundTruth, error) {
	path := filepath.Join(r.dir, fmt.Sprintf("graph-%d.txt", seed))
	f, err := os.Create(path)
	if err != nil {
		return "", nil, err
	}
	gt, _, err := gen.PlantedStream(gen.DefaultPlanted(spec.n, spec.communities, spec.edges, seed), f)
	if err != nil {
		f.Close()
		return "", nil, fmt.Errorf("generating graph: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", nil, err
	}
	return path, gt, nil
}

// loadGraph is the graph half of set-up: stream the edge file into a CSR
// graph and split off the held-out links.
func loadGraph(path string, spec graphSpec, seed uint64) (*graph.Graph, *graph.HeldOut, error) {
	src, err := graph.OpenEdgeFile(path)
	if err != nil {
		return nil, nil, err
	}
	g, err := graph.FromEdgeSource(src)
	if err != nil {
		return nil, nil, err
	}
	return graph.Split(g, g.NumEdges()/spec.heldDiv, mathx.NewRNG(seed+1))
}

// modelConfig is the sampler configuration every workload trains with: the
// repository's faster-mixing step schedule (StepA 0.05, StepB 4096, as in the
// Fig 6 harness) and α = 1/K.
func modelConfig(k int, seed uint64) core.Config {
	cfg := core.DefaultConfig(k, seed)
	cfg.Alpha = 1 / float64(k)
	cfg.StepA = 0.05
	cfg.StepB = 4096
	return cfg
}

// quality scores the trained memberships against the planted truth, both in
// the generator's id space: F1 and overlapping NMI of the thresholded cover
// (π_ak > 1.5/K, metrics.FromState's default). rows visits every vertex's π
// row once.
func quality(n, k int, rows func(fn func(a int, pi []float32)) error, gt *gen.GroundTruth) (f1, nmi float64, err error) {
	thr := float32(1.5 / float64(k))
	members := make([][]int32, k)
	err = rows(func(a int, pi []float32) {
		for c, v := range pi {
			if v > thr {
				members[c] = append(members[c], int32(a))
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	det := ocdmetrics.NewCover(n, members)
	truth := ocdmetrics.NewCover(n, gt.Members)
	return ocdmetrics.F1Score(det, truth), ocdmetrics.NMI(det, truth), nil
}

// setQuality reports recovery of the planted communities. NMI is reported as
// the distance 1 − NMI: a workload that trains too briefly to recover any
// community (outofcore-serve) scores NMI 0, and a reported metric must not be
// 0.
func (r *run) setQuality(f1, nmi float64) {
	r.set("f1_planted", "score", f1)
	r.set("nmi_distance_planted", "score", 1-nmi)
}

// stateRowsOf visits an in-RAM state's π rows.
func stateRowsOf(st *core.State) func(fn func(a int, pi []float32)) error {
	return func(fn func(a int, pi []float32)) error {
		for a := 0; a < st.N; a++ {
			fn(a, st.PiRow(a))
		}
		return nil
	}
}

// storeRows reads every π row of ps in batches so quality can be scored
// without holding the whole table.
func storeRows(ps store.PiStore, fn func(a int, pi []float32)) error {
	const batch = 4096
	var rows store.Rows
	ids := make([]int32, 0, batch)
	for lo := 0; lo < ps.NumRows(); lo += batch {
		ids = ids[:0]
		for a := lo; a < min(lo+batch, ps.NumRows()); a++ {
			ids = append(ids, int32(a))
		}
		if err := ps.ReadRows(ids, &rows); err != nil {
			return err
		}
		for i, a := range ids {
			fn(int(a), rows.PiRow(i))
		}
	}
	return nil
}

// finite reports whether every perplexity point is a finite number.
func finite(trace []float64) bool {
	for _, v := range trace {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return len(trace) > 0
}

// settle collects the heap before a measured phase, so the phase starts
// without garbage an earlier one left and neither its timing nor the peak
// resident set depends on where the previous collection happened to fall.
func settle() { runtime.GC() }

// quantile returns the q-quantile (0..1) of xs by nearest rank; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func p99(xs []float64) float64 { return quantile(xs, 0.99) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// peakRSSMiB is the process high-water-mark resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kib, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTicks is the machine-wide CPU accounting of /proc/stat, in clock ticks.
type cpuTicks struct {
	busy, steal int64
}

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [9]int64
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseInt(f[i], 10, 64)
	}
	// user, nice, system, irq and softirq are time spent running; idle and
	// iowait are not demand.
	return cpuTicks{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}
}

// stealSince is the share of the CPU time the machine's processors wanted
// since a that the hypervisor gave to other guests instead.
//
// On a virtual machine whose host is oversubscribed, this steal (measured
// moving between 1% and 50% within minutes on a 2-vCPU cloud VM) stretches
// every CPU-bound timing by that share and swamps a change in the program.
// The benchmark therefore reports its CPU-bound timings — training time,
// iteration rate, set-up and snapshot publication — scaled by one minus the
// steal share of the phase they were measured in, and prints each phase's
// steal share beside the result. With no steal the scaled and wall-clock
// numbers are equal. Query latency on a mostly idle server is left unscaled:
// an idle processor asks for no time, so steal barely touches it.
func stealSince(a cpuTicks) float64 {
	b := readCPUTicks()
	demand := (b.busy - a.busy) + (b.steal - a.steal)
	if demand <= 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(demand)
}

// procCounters is the process-level view of one measured phase.
type procCounters struct {
	minflt, majflt int64
}

func readProc() procCounters {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procCounters{}
	}
	return procCounters{minflt: int64(ru.Minflt), majflt: int64(ru.Majflt)}
}

// heapWatch samples the live heap every few milliseconds from its own
// goroutine (runtime/metrics, no stop-the-world) and keeps the maximum, so
// the peak inside calls the benchmark cannot instrument, such as a whole
// distributed run, is seen too.
type heapWatch struct {
	stop chan struct{}
	done chan uint64
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, sample[0].Value.Uint64())
			}
			select {
			case <-tick.C:
			case <-h.stop:
				h.done <- peak
				return
			}
		}
	}()
	return h
}

// peakMiB stops the watch and returns the peak it saw.
func (h *heapWatch) peakMiB() float64 {
	close(h.stop)
	return float64(<-h.done) / mib
}

// setProcLayers reports the proc.* layer for a phase of iters iterations that
// started at before.
func (r *run) setProcLayers(before procCounters, iters int, h *heapWatch) {
	after := readProc()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("proc.minor_faults_per_iter", "count", float64(after.minflt-before.minflt)/float64(max(iters, 1)))
	r.set("proc.major_faults", "count", float64(after.majflt-before.majflt))
	r.set("proc.gc_cpu_frac", "ratio", ms.GCCPUFraction)
	r.set("proc.heap_peak_mib", "MiB", h.peakMiB())
}
