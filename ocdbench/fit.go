package main

import (
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/transport"
)

// The two fit workloads train the same seeded planted graph with the same
// model until the averaged held-out perplexity first reaches fitTarget — the
// paper's Fig 6 metric. The graph is dense enough (mean degree 40) that the
// sampler recovers the planted communities within the run, so F1 and NMI are
// informative, and the curve is steep at the target, so the iteration that
// reaches it moves little from seed to seed.
var fitGraph = graphSpec{n: 2000, communities: 8, edges: 40000, heldDiv: 50}

const (
	fitThreads   = 2
	fitK         = 16
	fitMinibatch = 512 // vertex pairs per minibatch
	fitNeighbors = 32  // |V_n|
	fitEvalEvery = 10
	fitTarget    = 6.5
	fitCap       = 3000 // iterations; not reaching fitTarget by then fails the run
	// fitSetups and distSetups are how many times a run sets up, so setup_s
	// is a median.
	fitSetups  = 11
	distSetups = 5
	// fitTracedIters is the length of each half of a traced run: enough
	// steps that the step-time p99 has ten beyond it.
	fitTracedIters = 1000
	// fitMinEpisodes and distMinEpisodes train-to-target episodes run even
	// when --seconds is shorter than they take.
	fitMinEpisodes  = 2
	distMinEpisodes = 1
)

func fitOptions(tr *obs.Tracer) core.SamplerOptions {
	return core.SamplerOptions{
		MinibatchPairs: fitMinibatch, NeighborCount: fitNeighbors,
		Threads: fitThreads, Tracer: tr,
	}
}

// setupTimes splits one set-up into its layers.
type setupTimes struct {
	graph, piInit, mesh time.Duration
}

func (s setupTimes) total() time.Duration { return s.graph + s.piInit + s.mesh }

// newLocalSampler is fit-local's set-up: load and split the graph, then build
// the sampler (π and θ initialisation, sampling strategies).
func newLocalSampler(path string, seed uint64, tr *obs.Tracer) (*core.Sampler, setupTimes, error) {
	var st setupTimes
	settle()
	t0 := time.Now()
	train, held, err := loadGraph(path, fitGraph, seed)
	if err != nil {
		return nil, st, err
	}
	st.graph = time.Since(t0)
	t1 := time.Now()
	s, err := core.NewSampler(modelConfig(fitK, seed), train, held, fitOptions(tr))
	st.piInit = time.Since(t1)
	return s, st, err
}

// episode is one training run's outcome.
type episode struct {
	elapsed time.Duration // training time, set-up excluded
	steal   float64       // steal share while training (see stealSince)
	iters   int
	trace   []float64 // perplexity every fitEvalEvery iterations
	reached bool
}

// rate and netElapsed are the steal-scaled iteration rate and training time.
func (e episode) rate() float64 { return float64(e.iters) / e.netElapsed().Seconds() }

func (e episode) netElapsed() time.Duration {
	return time.Duration(float64(e.elapsed) * (1 - e.steal))
}

func (e episode) print() {
	fmt.Printf("# episode: %d iterations in %.3fs (steal share %.3f), perplexity %.4f\n",
		e.iters, e.elapsed.Seconds(), e.steal, lastOf(e.trace))
}

// trainLocal steps s until the perplexity reaches target (target > 0) or for
// exactly limit iterations, evaluating every fitEvalEvery. spans, when set,
// records each step and evaluation as a layer call.
func trainLocal(s *core.Sampler, limit int, target float64, spans *spanLog) (episode, error) {
	var ep episode
	settle()
	ticks := readCPUTicks()
	start := time.Now()
	for ep.iters < limit {
		if _, err := spans.time("core.Sampler.TryStep", s.TryStep); err != nil {
			return ep, err
		}
		ep.iters++
		if ep.iters%fitEvalEvery == 0 {
			var p float64
			spans.time("core.Sampler.EvalPerplexity", func() error { p = s.EvalPerplexity(); return nil })
			ep.trace = append(ep.trace, p)
			if target > 0 && p <= target {
				ep.reached = true
				break
			}
		}
	}
	ep.elapsed = time.Since(start)
	ep.steal = stealSince(ticks)
	return ep, nil
}

// sameTrace reports whether two perplexity traces are bit-identical.
func sameTrace(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkEpisode applies the per-episode correctness checks and counts the
// episode as an operation.
func (r *run) checkEpisode(ep episode, what string) {
	r.op(!ep.reached)
	r.check(finite(ep.trace), "%s: perplexity trace is not finite: %v", what, ep.trace)
	r.check(ep.reached, "%s: perplexity %.4f did not reach %.2f within %d iterations",
		what, lastOf(ep.trace), fitTarget, fitCap)
}

func lastOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return xs[len(xs)-1]
}

// setFitResult reports the end-to-end metrics shared by both fit workloads.
func (r *run) setFitResult(setups []time.Duration, eps []episode, st *core.State, gt *gen.GroundTruth) error {
	var setupS, tts, rates []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	for _, ep := range eps {
		tts = append(tts, ep.netElapsed().Seconds())
		rates = append(rates, ep.rate())
	}
	r.set("setup_s", "s", median(setupS)*(1-stealSince(r.ticks)))
	r.set("time_to_target_s", "s", median(tts))
	r.set("iters_per_s", "1/s", median(rates))
	r.set("heldout_perplexity", "perplexity", lastOf(eps[len(eps)-1].trace))
	f1, nmi, err := quality(st.N, st.K, stateRowsOf(st), gt)
	r.setQuality(f1, nmi)
	return err
}

func (r *run) setPeakRSS() error {
	rss, err := peakRSSMiB()
	r.set("peak_rss_mib", "MiB", rss)
	return err
}

// runFitLocal: in-RAM single-rank training, threads=2, to the target.
func runFitLocal(r *run) error {
	path, gt, err := genGraph(r, fitGraph, r.seed)
	if err != nil {
		return err
	}
	if r.traced {
		return fitLocalTraced(r, path, gt)
	}
	var (
		setups []time.Duration
		eps    []episode
		last   *core.Sampler
	)
	deadline := time.Now().Add(time.Duration(r.seconds) * time.Second)
	for len(eps) < fitMinEpisodes || time.Now().Before(deadline) {
		s, st, err := newLocalSampler(path, r.seed, nil)
		if err != nil {
			return err
		}
		setups = append(setups, st.total())
		ep, err := trainLocal(s, fitCap, fitTarget, nil)
		if err != nil {
			return err
		}
		r.checkEpisode(ep, "fit-local")
		ep.print()
		r.check(len(eps) == 0 || sameTrace(ep.trace, eps[0].trace),
			"fit-local: repeated episodes on one seed diverged")
		eps, last = append(eps, ep), s
	}
	for len(setups) < fitSetups {
		_, st, err := newLocalSampler(path, r.seed, nil)
		if err != nil {
			return err
		}
		setups = append(setups, st.total())
	}
	if err := r.setFitResult(setups, eps, last.State, gt); err != nil {
		return err
	}
	if err := r.serveTrained(last.State, fitK); err != nil {
		return err
	}
	return r.setPeakRSS()
}

// fitLocalTraced is fit-local's per-layer run: an untraced and a traced half
// of fitTracedIters iterations each on one set-up's inputs, then the kernel,
// allocation, serving and model-residual layers.
func fitLocalTraced(r *run, path string, gt *gen.GroundTruth) error {
	plain, _, err := newLocalSampler(path, r.seed, nil)
	if err != nil {
		return err
	}
	base, err := trainLocal(plain, fitTracedIters, 0, nil)
	if err != nil {
		return err
	}
	engineTr := obs.NewTracer(0, 0)
	s, st, err := newLocalSampler(path, r.seed, engineTr)
	if err != nil {
		return err
	}
	r.set("setup.graph_s", "s", st.graph.Seconds())
	r.set("setup.pi_init_s", "s", st.piInit.Seconds())
	r.set("setup.mesh_s", "s", 0)
	heap := startHeapWatch()
	before := readProc()
	ep, err := trainLocal(s, fitTracedIters, 0, r.spans)
	if err != nil {
		return err
	}
	r.setProcLayers(before, ep.iters, heap)
	r.check(finite(ep.trace), "fit-local traced: perplexity trace is not finite")
	r.check(sameTrace(ep.trace, base.trace), "fit-local: tracing changed the perplexity trace")
	r.op(false)
	r.set("trace.overhead_pct", "%", 100*(base.rate()-ep.rate())/base.rate())

	r.setStepLayers()
	stages := stageSelfMS([]obs.TraceBundle{engineTr.Bundle()}, ep.iters)
	phases := []map[string]time.Duration{s.Phases.Snapshot()}
	r.setEngineLayers(stages, phases, ep.iters)
	if err := r.setAllocLayers(s.TryStep); err != nil {
		return err
	}
	r.setKernelLayer(kernelInput(s.State), s.State.Beta, s.Cfg)
	r.zeroLayers(storeLayers...)
	r.zeroLayers(distLayers...)
	r.setModelResiduals(stages, perfmodel.SingleNode(perfmodel.Calibrate(), fitWorkload(s.Graph, s.Held), fitThreads))
	if err := r.serveTrained(s.State, fitK); err != nil {
		return err
	}
	return r.writeTrace([]obs.TraceBundle{engineTr.Bundle()})
}

// fit-dist runs the fit-local model through the distributed engine: 2 ranks
// × 1 thread on a TCP loopback mesh inside this process, pipelined, with a
// 4096-row cross-iteration LRU hot-row cache.
const (
	distRanks   = 2
	distHotRows = 4096
)

func distOptions(iters int, traced bool) dist.Options {
	return dist.Options{
		Threads: 1, Pipeline: true,
		HotRowCache: distHotRows, HotCacheCrossIter: true,
		MinibatchPairs: fitMinibatch, NeighborCount: fitNeighbors,
		EvalEvery: fitEvalEvery, Iterations: iters, Trace: traced,
	}
}

// runDist is one fit-dist episode including its set-up: load the graph, dial
// the mesh, and run. The engine builds its ranks and initialises π inside
// RunOnTransport, so that part of set-up is the run's wall time minus its
// iteration loop (it also holds the end-of-run state gather, small here).
func runDist(path string, seed uint64, iters int, traced bool) (*dist.Result, setupTimes, error) {
	var st setupTimes
	settle()
	t0 := time.Now()
	train, held, err := loadGraph(path, fitGraph, seed)
	if err != nil {
		return nil, st, err
	}
	st.graph = time.Since(t0)
	t1 := time.Now()
	conns, err := dialLoopbackMesh(distRanks)
	if err != nil {
		return nil, st, err
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	st.mesh = time.Since(t1)
	settle()
	t2 := time.Now()
	res, err := dist.RunOnTransport(modelConfig(fitK, seed), train, held, distOptions(iters, traced), conns)
	if err != nil {
		return nil, st, err
	}
	st.piInit = time.Since(t2) - res.Elapsed
	return res, st, nil
}

func distTrace(res *dist.Result) []float64 {
	out := make([]float64, len(res.Perplexity))
	for i, p := range res.Perplexity {
		out[i] = p.Value
	}
	return out
}

// distEpisode is a distributed run's outcome; its training time is the
// engine's iteration loop.
func distEpisode(res *dist.Result) episode {
	ep := episode{elapsed: res.Elapsed, iters: res.Iterations, trace: distTrace(res)}
	ep.reached = len(ep.trace) > 0 && lastOf(ep.trace) <= fitTarget
	return ep
}

// runFitDist: the reference fit-local trajectory fixes the iteration where
// the target is first reached; each distributed episode runs exactly that
// many iterations and must reproduce the reference trace bit for bit.
func runFitDist(r *run) error {
	path, gt, err := genGraph(r, fitGraph, r.seed)
	if err != nil {
		return err
	}
	if r.traced {
		return fitDistTraced(r, path, gt)
	}
	refSampler, _, err := newLocalSampler(path, r.seed, nil)
	if err != nil {
		return err
	}
	ref, err := trainLocal(refSampler, fitCap, fitTarget, nil)
	if err != nil {
		return err
	}
	r.checkEpisode(ref, "fit-dist reference")
	if !ref.reached {
		return r.setPeakRSS()
	}
	var (
		setups []time.Duration
		eps    []episode
		last   *dist.Result
	)
	deadline := time.Now().Add(time.Duration(r.seconds) * time.Second)
	for len(eps) < distMinEpisodes || time.Now().Before(deadline) {
		ticks := readCPUTicks()
		res, st, err := runDist(path, r.seed, ref.iters, false)
		if err != nil {
			return err
		}
		setups = append(setups, st.total())
		ep := distEpisode(res)
		ep.steal = stealSince(ticks)
		r.checkEpisode(ep, "fit-dist")
		ep.print()
		r.check(sameTrace(ep.trace, ref.trace),
			"fit-dist: perplexity trace differs from fit-local's for the same seed")
		eps, last = append(eps, ep), res
	}
	for len(setups) < distSetups {
		_, st, err := runDist(path, r.seed, 1, false)
		if err != nil {
			return err
		}
		setups = append(setups, st.total())
	}
	if err := r.setFitResult(setups, eps, last.State, gt); err != nil {
		return err
	}
	if err := r.serveTrained(last.State, fitK); err != nil {
		return err
	}
	return r.setPeakRSS()
}

// fitDistTraced is fit-dist's per-layer run: untraced and traced distributed
// runs of fitTracedIters iterations, both checked against the fit-local
// trajectory of the same length.
func fitDistTraced(r *run, path string, gt *gen.GroundTruth) error {
	refSampler, _, err := newLocalSampler(path, r.seed, nil)
	if err != nil {
		return err
	}
	ref, err := trainLocal(refSampler, fitTracedIters, 0, nil)
	if err != nil {
		return err
	}
	base, _, err := runDist(path, r.seed, fitTracedIters, false)
	if err != nil {
		return err
	}
	heap := startHeapWatch()
	before := readProc()
	var ms0 memCounters
	ms0.read()
	var res *dist.Result
	var st setupTimes
	if _, err := r.spans.time("dist.RunOnTransport", func() error {
		res, st, err = runDist(path, r.seed, fitTracedIters, true)
		return err
	}); err != nil {
		return err
	}
	var ms1 memCounters
	ms1.read()
	r.setProcLayers(before, res.Iterations, heap)
	r.op(false)
	r.check(sameTrace(distTrace(base), ref.trace) && sameTrace(distTrace(res), ref.trace),
		"fit-dist: perplexity trace differs from fit-local's for the same seed")
	baseRate, rate := distEpisode(base).rate(), distEpisode(res).rate()
	r.set("trace.overhead_pct", "%", 100*(baseRate-rate)/baseRate)
	r.set("setup.graph_s", "s", st.graph.Seconds())
	r.set("setup.pi_init_s", "s", st.piInit.Seconds())
	r.set("setup.mesh_s", "s", st.mesh.Seconds())

	iters := res.Iterations
	var iterMS []float64
	for _, sp := range res.Trace[0].Spans {
		if sp.Cat == obs.CatIter {
			iterMS = append(iterMS, float64(sp.DurNS)/1e6)
		}
	}
	r.set("core.step_ms_p50", "ms", median(iterMS))
	r.set("core.step_ms_p99", "ms", p99(iterMS))
	evals := max(iters/fitEvalEvery, 1)
	r.set("core.eval_ms", "ms", ms(maxPhase(res.RankPhases, "perplexity"))/float64(evals))
	// Allocation counts cover the whole RunOnTransport call, both ranks, set-up
	// included: nothing inside it can be timed from outside.
	r.set("core.allocs_per_step", "count", float64(ms1.mallocs-ms0.mallocs)/float64(iters))
	r.set("core.alloc_bytes_per_step", "bytes", float64(ms1.bytes-ms0.bytes)/float64(iters))

	stages := stageSelfMS(res.Trace, iters)
	r.setEngineLayers(stages, res.RankPhases, iters)
	r.setDistLayers(res)
	r.zeroLayers(storeLayers...)
	r.setKernelLayer(kernelInput(res.State), res.State.Beta, modelConfig(fitK, r.seed))
	train, held, err := loadGraph(path, fitGraph, r.seed)
	if err != nil {
		return err
	}
	r.setModelResiduals(stages, perfmodel.IterationThreads(perfmodel.Calibrate(), loopbackNet,
		fitWorkload(train, held), distRanks, 1, true))
	if err := r.serveTrained(res.State, fitK); err != nil {
		return err
	}
	return r.writeTrace(res.Trace)
}

// dialLoopbackMesh builds a fully connected TCP mesh on 127.0.0.1: reserve a
// port per rank, then every rank dials its peers concurrently (each dial
// blocks on its peer's accept).
func dialLoopbackMesh(ranks int) ([]transport.Conn, error) {
	addrs := make([]string, ranks)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	conns := make([]transport.Conn, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := transport.DialMesh(rank, addrs)
			if err == nil {
				conns[rank] = c
			}
			errs[rank] = err
		}(rank)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, c := range conns {
				if c != nil {
					c.Close()
				}
			}
			return nil, fmt.Errorf("dialing loopback mesh: %w", err)
		}
	}
	return conns, nil
}

func fitWorkload(g *graph.Graph, held *graph.HeldOut) perfmodel.Workload {
	return perfmodel.Workload{N: g.NumVertices(), K: fitK, MinibatchPairs: fitMinibatch,
		NeighborCount: fitNeighbors, HeldOut: held.Len(), MeanDegree: g.MeanDegree()}
}
