package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/simnet"
)

// Layers a workload bypasses are reported as 0, so every traced result has
// the same metric set and a bypassed layer reads as "no work done here".
var (
	storeLayers = []string{
		"store.rows_read_per_iter", "store.read_us_per_row", "store.write_ms_per_iter",
		"store.flush_ms_per_iter", "store.tier.hot_hit_ratio",
	}
	distLayers = []string{
		"store.dkv_cache_hit_ratio", "dkv.remote_keys_per_iter", "dkv.requests_per_iter",
		"dkv.read_mib_per_iter", "dkv.client_wait_ms_per_iter", "dkv.serve_queue_ms_per_iter",
		"transport.msgs_per_iter", "transport.mib_per_iter", "transport.recv_wait_ms_per_iter",
		"cluster.collective_ms_per_iter",
	}
)

func (r *run) zeroLayers(names ...string) {
	for _, n := range names {
		r.set(n, layerUnits[n], 0)
	}
}

// memCounters is the allocation view of runtime.MemStats.
type memCounters struct {
	mallocs, bytes uint64
}

func (m *memCounters) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs, m.bytes = ms.Mallocs, ms.TotalAlloc
}

// setStepLayers reports core.step/eval from the benchmark's spans around
// Sampler.TryStep and Sampler.EvalPerplexity.
func (r *run) setStepLayers() {
	steps := r.spans.durationsMS("core.Sampler.TryStep")
	r.set("core.step_ms_p50", "ms", median(steps))
	r.set("core.step_ms_p99", "ms", p99(steps))
	r.set("core.eval_ms", "ms", median(r.spans.durationsMS("core.Sampler.EvalPerplexity")))
}

// allocSteps is how many extra steps setAllocLayers measures, after the
// traced half so the stop-the-world MemStats reads stay out of its timing.
const allocSteps = 50

func (r *run) setAllocLayers(step func() error) error {
	var before, after memCounters
	var mallocs, bytes uint64
	for i := 0; i < allocSteps; i++ {
		before.read()
		if err := step(); err != nil {
			return err
		}
		after.read()
		mallocs += after.mallocs - before.mallocs
		bytes += after.bytes - before.bytes
	}
	r.set("core.allocs_per_step", "count", float64(mallocs)/allocSteps)
	r.set("core.alloc_bytes_per_step", "bytes", float64(bytes)/allocSteps)
	return nil
}

// setKernelLayer times core.UpdatePhi at the workload's K on π rows taken
// from its trained state: vertex 0 against the next fitNeighbors rows.
func (r *run) setKernelLayer(rows [][]float32, beta []float64, cfg core.Config) {
	piA, piB := rows[0], rows[1:]
	linked := make([]bool, len(piB))
	weight := make([]float64, len(piB))
	for i := range piB {
		linked[i] = i%4 == 0
		weight[i] = 10
	}
	sc := core.NewPhiScratch(cfg.K)
	newPhi := make([]float64, cfg.K)
	rng := mathx.NewRNG(r.seed)
	const calls = 20000
	d, _ := r.spans.time("core.UpdatePhi", func() error {
		for i := 0; i < calls; i++ {
			core.UpdatePhi(&cfg, 0.001, piA, 10, piB, linked, weight, beta, rng, newPhi, sc)
		}
		return nil
	})
	r.set("core.update_phi_ns_per_vertex", "ns", float64(d.Nanoseconds())/calls)
}

// kernelInput returns the kernel's input rows from an in-RAM state.
func kernelInput(st *core.State) [][]float32 {
	rows := make([][]float32, fitNeighbors+1)
	for i := range rows {
		rows[i] = st.PiRow(i % st.N)
	}
	return rows
}

// stageSelfMS returns each engine stage's self time per iteration, the
// maximum across ranks: a stage span's duration minus the part of it its
// child spans (collectives, DKV waits) cover.
func stageSelfMS(bundles []obs.TraceBundle, iters int) map[string]float64 {
	out := map[string]float64{}
	for _, b := range bundles {
		children := map[obs.SpanID][][2]int64{}
		for _, sp := range b.Spans {
			if sp.Parent != 0 {
				children[sp.Parent] = append(children[sp.Parent], [2]int64{sp.StartNS, sp.End()})
			}
		}
		self := map[string]float64{}
		for _, sp := range b.Spans {
			if sp.Cat != obs.CatStage {
				continue
			}
			covered := union(children[sp.ID], sp.StartNS, sp.End())
			self[sp.Name] += float64(sp.DurNS-covered) / 1e6 / float64(iters)
		}
		for name, v := range self {
			out[name] = math.Max(out[name], v)
		}
	}
	return out
}

// union returns how much of [lo, hi) the intervals cover.
func union(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, end int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], end), min(x[1], hi)
		if e > s {
			covered += e - s
			end = e
		}
	}
	return covered
}

// maxPhase is a phase's total across the run, the maximum across ranks.
func maxPhase(rankPhases []map[string]time.Duration, name string) time.Duration {
	var m time.Duration
	for _, p := range rankPhases {
		m = max(m, p[name])
	}
	return m
}

// setEngineLayers reports the engine stages: span self times for the loop's
// stages, the engine's own phase timers for the update_phi load/compute split
// (which has no spans) and for evaluation (which runs outside the loop).
func (r *run) setEngineLayers(stages map[string]float64, phases []map[string]time.Duration, iters int) {
	it := float64(max(iters, 1))
	r.set("engine.draw_minibatch_ms", "ms", stages[engine.PhaseDrawMinibatch])
	r.set("engine.update_phi.load_pi_ms", "ms", ms(maxPhase(phases, engine.PhaseLoadPi))/it)
	r.set("engine.update_phi.compute_ms", "ms", ms(maxPhase(phases, engine.PhaseComputePhi))/it)
	r.set("engine.update_pi_ms", "ms", stages[engine.PhaseUpdatePi])
	r.set("engine.update_beta_theta_ms", "ms", stages[engine.PhaseUpdateBetaTheta])
	r.set("engine.perplexity_ms", "ms", ms(maxPhase(phases, engine.PhasePerplexity))/it)
	r.set("engine.barrier_ms", "ms", stages[engine.PhaseBarrier])
	r.set("engine.publish_ms", "ms", stages[engine.PhasePublish])
}

// spanSumMS is, per rank, the summed duration of the spans keep selects per
// iteration; the maximum across ranks.
func spanSumMS(bundles []obs.TraceBundle, iters int, keep func(obs.Span) bool) float64 {
	var out float64
	for _, b := range bundles {
		var sum int64
		for _, sp := range b.Spans {
			if keep(sp) {
				sum += sp.DurNS
			}
		}
		out = math.Max(out, float64(sum)/1e6/float64(max(iters, 1)))
	}
	return out
}

// setDistLayers reports dkv, transport and cluster from a traced distributed
// run's counters and spans.
func (r *run) setDistLayers(res *dist.Result) {
	it := float64(max(res.Iterations, 1))
	d := res.DKV
	hitRatio := 0.0
	if d.CacheHits+d.CacheMisses > 0 {
		hitRatio = float64(d.CacheHits) / float64(d.CacheHits+d.CacheMisses)
	}
	r.set("store.dkv_cache_hit_ratio", "ratio", hitRatio)
	r.set("dkv.remote_keys_per_iter", "count", float64(d.RemoteKeys)/it)
	r.set("dkv.requests_per_iter", "count", float64(d.Requests)/it)
	r.set("dkv.read_mib_per_iter", "MiB", float64(d.BytesRead)/mib/it)
	r.set("dkv.client_wait_ms_per_iter", "ms", spanSumMS(res.Trace, res.Iterations,
		func(sp obs.Span) bool { return sp.Cat == obs.CatDKVWait }))
	r.set("dkv.serve_queue_ms_per_iter", "ms", spanSumMS(res.Trace, res.Iterations,
		func(sp obs.Span) bool { return sp.Cat == obs.CatDKVServe && sp.Name == "queue" }))
	c := res.Metrics.Counters
	r.set("transport.msgs_per_iter", "count", float64(c[obs.CtrNetMsgsSent])/it)
	r.set("transport.mib_per_iter", "MiB", float64(c[obs.CtrNetBytesSent])/mib/it)
	r.set("transport.recv_wait_ms_per_iter", "ms", spanSumMS(res.Trace, res.Iterations,
		func(sp obs.Span) bool { return sp.Cat == obs.CatRecv }))
	r.set("cluster.collective_ms_per_iter", "ms", spanSumMS(res.Trace, res.Iterations,
		func(sp obs.Span) bool { return sp.Cat == obs.CatCollective }))
}

// loopbackNet is the interconnect model for the in-process TCP loopback mesh:
// assumed constants, not a measurement, so the residual tracks the model's
// error on this transport rather than a fitted value.
var loopbackNet = simnet.Model{LatencySec: 30e-6, BandwidthBytesPerSec: 1e9, RequestOverheadSec: 10e-6}

// setModelResiduals compares the cost model's per-phase prediction for this
// workload's configuration, calibrated on the machine it runs on, with the measured
// stage self times: |predicted − measured| / measured, in percent.
func (r *run) setModelResiduals(stages map[string]float64, est perfmodel.Estimate) {
	residual := func(name string, predictedS float64) {
		measured := stages[name]
		predicted := predictedS * 1e3
		v := 0.0
		switch {
		case measured > 0:
			v = 100 * math.Abs(predicted-measured) / measured
		case predicted > 0:
			v = 100
		}
		r.set("perfmodel."+name+".residual_pct", "%", v)
	}
	residual(engine.PhaseDrawMinibatch, est.DrawMinibatch)
	residual(engine.PhaseDeployMinibatch, est.DeployMinibatch)
	residual(engine.PhaseUpdatePhi, est.UpdatePhi)
	residual(engine.PhaseUpdatePi, est.UpdatePi)
	residual(engine.PhaseUpdateBetaTheta, est.UpdateBetaTheta)
}

// writeTrace writes the engine's bundles and the benchmark's own spans as one
// Chrome trace-event file.
func (r *run) writeTrace(bundles []obs.TraceBundle) error {
	bundles = append(bundles, r.spans.tr.Bundle())
	for _, b := range bundles {
		r.check(b.Dropped == 0, "rank %d's span buffer dropped %d spans; per-layer numbers are incomplete", b.Rank, b.Dropped)
	}
	path := r.tracePath()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, bundles); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("# chrome trace", path)
	return nil
}
