package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/serve"
	"repro/internal/store"
)

// outofcore-serve trains a graph whose π table (N·K·4 bytes ≈ 24 MiB) sits
// in sharded mmap files behind a hot-row tier of 8% of the rows, publishing
// a snapshot every oocPublishEvery iterations to a live HTTP serving tier
// that answers an open-loop query stream the whole time. It is the only
// workload where mmap/tier reads, snapshot sealing and serving do the work,
// and where reads (queries) run beside writes (training plus snapshot
// flips). Publishing every 5 iterations makes sealing and flipping about a
// third of the training loop, as the snapshot copy and index build are
// O(N·K) while an iteration's cost does not grow with N. The run length is
// the fixed budget, not --seconds.
var oocGraph = graphSpec{n: 100000, communities: 64, edges: 500000, heldDiv: 50}

const (
	oocK            = 64
	oocHotRows      = 8192
	oocPublishEvery = 5
	oocEvalEvery    = 10
	// oocIters is the fixed training budget and this workload's training
	// target: time_to_target_s is the time to complete it, and the quality
	// metrics are read at the same iteration however fast the program runs.
	// (The perplexity this graph reaches at a given iteration moves too much
	// from seed to seed for a perplexity target to time steadily.)
	oocIters = 150
	// oocSetups is how many times a run sets up, so setup_s is a median.
	oocSetups = 3
	// oocTracedIters is the length of each half of a traced run.
	oocTracedIters = 100
)

// oocRig is one set-up of the out-of-core pipeline.
type oocRig struct {
	dir  string
	ms   *store.MmapStore
	tier *store.TieredStore
	ts   *timedStore
	pub  *store.Publisher
	eng  *serve.Engine
	srv  *serve.Server
	addr string
	s    *core.Sampler
	g    *graph.Graph
	held *graph.HeldOut
}

// newOOCRig sets up: stream-load the graph, create and initialise the mmap π
// store (streamed, never whole in memory), wrap it in the hot tier and the
// timing decorator, build the sampler, and start the HTTP serving tier.
func newOOCRig(r *run, path string, i int, spans *spanLog, tr *obs.Tracer) (*oocRig, setupTimes, error) {
	var st setupTimes
	rig := &oocRig{dir: filepath.Join(r.dir, fmt.Sprintf("pi-%d", i))}
	settle()
	t0 := time.Now()
	train, held, err := loadGraph(path, oocGraph, r.seed)
	if err != nil {
		return nil, st, err
	}
	rig.g, rig.held = train, held
	st.graph = time.Since(t0)

	t1 := time.Now()
	cfg := modelConfig(oocK, r.seed)
	if rig.ms, err = store.CreateMmap(rig.dir, train.NumVertices(), oocK, store.MmapOptions{Threads: 1}); err != nil {
		return nil, st, err
	}
	if err := rig.ms.InitRows(core.ShellInit(cfg)); err != nil {
		rig.close()
		return nil, st, err
	}
	if _, err := rig.ms.Seal(); err != nil {
		rig.close()
		return nil, st, err
	}
	if rig.tier, err = store.NewTiered(rig.ms, nil, oocHotRows, 1, nil); err != nil {
		rig.close()
		return nil, st, err
	}
	rig.ts = newTimedStore(rig.tier, spans)
	rig.pub = store.NewPublisher()
	rig.s, err = core.NewSampler(cfg, train, held, core.SamplerOptions{
		MinibatchPairs: fitMinibatch, NeighborCount: fitNeighbors, Threads: 1,
		Store: rig.ts, Publisher: rig.pub, PublishEvery: oocPublishEvery, Tracer: tr,
	})
	if err != nil {
		rig.close()
		return nil, st, err
	}
	st.piInit = time.Since(t1)

	t2 := time.Now()
	rig.eng = serve.NewEngine(0)
	rig.eng.Attach(rig.pub)
	rig.srv = serve.New("127.0.0.1:0", rig.eng, rig.pub)
	if rig.addr, err = rig.srv.Start(); err != nil {
		rig.srv = nil
		rig.close()
		return nil, st, err
	}
	st.mesh = time.Since(t2)
	return rig, st, nil
}

func (g *oocRig) close() {
	if g.srv != nil {
		g.srv.Close()
	}
	if g.ms != nil {
		g.ms.Close()
	}
	os.RemoveAll(g.dir)
}

// oocRun is what one training session under query load measured.
type oocRun struct {
	iters     int
	elapsed   time.Duration
	steal     float64 // steal share while training (see stealSince)
	trace     []float64
	publishMS []float64 // snapshot seal start → version visible
	flipMS    []float64 // Publisher.LastFlipNS after each publication
	load      loadStats
	problems  []string
}

// netElapsed and rate are the steal-scaled training time and iteration rate.
func (o oocRun) netElapsed() time.Duration {
	return time.Duration(float64(o.elapsed) * (1 - o.steal))
}

func (o oocRun) rate() float64 { return float64(o.iters) / o.netElapsed().Seconds() }

// train runs iters iterations with the query stream on from the first
// publication (before it the server has nothing to answer with) to the end.
func (g *oocRig) train(r *run, iters int, spans *spanLog) (oocRun, error) {
	var (
		out  oocRun
		wg   sync.WaitGroup
		once sync.Once
		stop = make(chan struct{})
	)
	halt := func() {
		once.Do(func() { close(stop) })
		wg.Wait()
	}
	defer halt()
	settle()
	ticks := readCPUTicks()
	start := time.Now()
	for it := 1; it <= iters; it++ {
		_, err := spans.time("core.Sampler.TryStep", g.s.TryStep)
		r.op(err != nil)
		if err != nil {
			return out, err
		}
		if sealStart, ok := g.ts.takeSnapshotStart(); ok {
			out.publishMS = append(out.publishMS, float64(obs.TraceNow()-sealStart)/1e6)
			out.flipMS = append(out.flipMS, float64(g.pub.LastFlipNS())/1e6)
		}
		if it == oocPublishEvery {
			load := &queryLoad{addr: g.addr, eng: g.eng, n: g.g.NumVertices(), k: oocK,
				seed: r.seed + 3, rate: queryRate, stop: stop, spans: spans}
			wg.Add(1)
			go func() {
				defer wg.Done()
				out.load, out.problems = load.run()
			}()
		}
		if it%oocEvalEvery == 0 {
			var p float64
			spans.time("core.Sampler.EvalPerplexity", func() error { p = g.s.EvalPerplexity(); return nil })
			out.trace = append(out.trace, p)
		}
	}
	out.elapsed = time.Since(start)
	out.steal = stealSince(ticks)
	out.iters = iters
	halt()
	fmt.Printf("# trained %d iterations in %.3fs (steal share %.3f), perplexity %.4f\n",
		iters, out.elapsed.Seconds(), out.steal, lastOf(out.trace))
	return out, nil
}

// runOutOfCoreServe measures the out-of-core pipeline end to end.
func runOutOfCoreServe(r *run) error {
	path, gt, err := genGraph(r, oocGraph, r.seed)
	if err != nil {
		return err
	}
	if r.traced {
		return oocTraced(r, path, gt)
	}
	var setups []float64
	var rig *oocRig
	for i := 0; i < oocSetups; i++ {
		if rig != nil {
			rig.close()
		}
		var st setupTimes
		if rig, st, err = newOOCRig(r, path, i, nil, nil); err != nil {
			return err
		}
		setups = append(setups, st.total().Seconds())
	}
	defer rig.close()
	out, err := rig.train(r, oocIters, nil)
	if err != nil {
		return err
	}
	r.record(out.load, out.problems)
	r.check(finite(out.trace), "outofcore-serve: perplexity trace is not finite: %v", out.trace)
	r.check(len(out.publishMS) == oocIters/oocPublishEvery, "outofcore-serve: %d publications, want %d",
		len(out.publishMS), oocIters/oocPublishEvery)

	r.set("setup_s", "s", median(setups)*(1-stealSince(r.ticks)))
	r.set("time_to_target_s", "s", out.netElapsed().Seconds())
	r.set("iters_per_s", "1/s", out.rate())
	r.set("heldout_perplexity", "perplexity", lastOf(out.trace))
	r.set("publish_ms_p50", "ms", median(out.publishMS)*(1-out.steal))
	if err := r.setPeakRSS(); err != nil {
		return err
	}
	return r.setStoreQuality(rig, gt)
}

// setStoreQuality scores the trained memberships read back through the store.
func (r *run) setStoreQuality(rig *oocRig, gt *gen.GroundTruth) error {
	f1, nmi, err := quality(rig.g.NumVertices(), oocK, func(fn func(int, []float32)) error {
		return storeRows(rig.tier, fn)
	}, gt)
	if err != nil {
		return err
	}
	r.setQuality(f1, nmi)
	return nil
}

// oocTraced is the per-layer run: an untraced and a traced half of
// oocTracedIters iterations under the same query load, each on its own
// set-up, then the kernel, allocation, serving and model-residual layers.
func oocTraced(r *run, path string, gt *gen.GroundTruth) error {
	plain, _, err := newOOCRig(r, path, 0, nil, nil)
	if err != nil {
		return err
	}
	base, err := plain.train(r, oocTracedIters, nil)
	plain.close()
	if err != nil {
		return err
	}

	engineTr := obs.NewTracer(0, 0)
	rig, st, err := newOOCRig(r, path, 1, r.spans, engineTr)
	if err != nil {
		return err
	}
	defer rig.close()
	r.set("setup.graph_s", "s", st.graph.Seconds())
	r.set("setup.pi_init_s", "s", st.piInit.Seconds())
	r.set("setup.mesh_s", "s", st.mesh.Seconds())
	heap := startHeapWatch()
	before := readProc()
	out, err := rig.train(r, oocTracedIters, r.spans)
	if err != nil {
		return err
	}
	r.setProcLayers(before, out.iters, heap)
	r.record(base.load, base.problems)
	r.record(out.load, out.problems)
	r.check(sameTrace(out.trace, base.trace), "outofcore-serve: tracing changed the perplexity trace")
	r.set("trace.overhead_pct", "%", 100*(base.rate()-out.rate())/base.rate())

	r.setStepLayers()
	stages := stageSelfMS([]obs.TraceBundle{engineTr.Bundle()}, out.iters)
	r.setEngineLayers(stages, []map[string]time.Duration{rig.s.Phases.Snapshot()}, out.iters)
	r.setStoreLayers(rig.ts, out.iters)
	ts := rig.tier.Stats()
	hot := 0.0
	if ts.HotHits+ts.HotMisses > 0 {
		hot = float64(ts.HotHits) / float64(ts.HotHits+ts.HotMisses)
	}
	r.set("store.tier.hot_hit_ratio", "ratio", hot)
	r.set("store.snapshot_ms_p50", "ms", median(rig.ts.snapshotTimes()))
	r.set("store.snapshot_mib", "MiB", float64(rig.g.NumVertices()*oocK*4)/mib)
	r.set("serve.flip_ms_p50", "ms", median(out.flipMS))
	r.zeroLayers(distLayers...)
	if err := r.engineQueries(rig.eng, rig.g.NumVertices(), oocK, fitQueries); err != nil {
		return err
	}
	if err := r.setAllocLayers(rig.s.TryStep); err != nil {
		return err
	}

	ids := make([]int32, fitNeighbors+1)
	for i := range ids {
		ids[i] = int32(i)
	}
	var rows store.Rows
	if err := rig.tier.ReadRows(ids, &rows); err != nil {
		return err
	}
	kernelRows := make([][]float32, len(ids))
	for i := range ids {
		kernelRows[i] = rows.PiRow(i)
	}
	r.setKernelLayer(kernelRows, rig.s.State.Beta, rig.s.Cfg)
	w := perfmodel.Workload{N: rig.g.NumVertices(), K: oocK, MinibatchPairs: fitMinibatch,
		NeighborCount: fitNeighbors, HeldOut: rig.held.Len(), MeanDegree: rig.g.MeanDegree()}
	r.setModelResiduals(stages, perfmodel.SingleNodeOutOfCore(perfmodel.Calibrate(), w, 1, hot))
	return r.writeTrace([]obs.TraceBundle{engineTr.Bundle()})
}
