package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/store"
)

// trainOutOfCore trains a small graph through a tiered mmap store, optionally
// behind the timing decorator, publishing snapshots as outofcore-serve does,
// and returns the perplexity trace.
func trainOutOfCore(t *testing.T, decorate bool) []float64 {
	t.Helper()
	g, _, err := gen.Planted(gen.DefaultPlanted(1500, 8, 20000, 5))
	if err != nil {
		t.Fatal(err)
	}
	train, held, err := graph.Split(g, g.NumEdges()/50, mathx.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	cfg := modelConfig(16, 5)
	ms, err := store.CreateMmap(t.TempDir(), train.NumVertices(), cfg.K, store.MmapOptions{ShardRows: 256, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if err := ms.InitRows(core.ShellInit(cfg)); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Seal(); err != nil {
		t.Fatal(err)
	}
	tier, err := store.NewTiered(ms, nil, 128, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ps store.PiStore = tier
	if decorate {
		ts := newTimedStore(tier, newSpanLog())
		if store.ReadsAreLocal(ts) != store.ReadsAreLocal(tier) {
			t.Fatal("decorator changed the LocalReader answer")
		}
		if _, ok := store.PiStore(ts).(store.PiWriter); !ok {
			t.Fatal("decorator does not forward PiWriter")
		}
		ps = ts
	}
	pub := store.NewPublisher()
	s, err := core.NewSampler(cfg, train, held, core.SamplerOptions{
		MinibatchPairs: 128, NeighborCount: 16, Threads: 1,
		Store: ps, Publisher: pub, PublishEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var trace []float64
	for it := 1; it <= 40; it++ {
		if err := s.TryStep(); err != nil {
			t.Fatal(err)
		}
		if it%10 == 0 {
			trace = append(trace, s.EvalPerplexity())
		}
	}
	if cur := pub.Current(); cur == nil || cur.Version != 40 {
		t.Fatalf("published version %v, want 40", cur)
	}
	return trace
}

// TestTimedStoreIsTransparent pins that the timing decorator outofcore-serve
// trains through runs the same program: the perplexity trace is bit-identical
// with and without it.
func TestTimedStoreIsTransparent(t *testing.T) {
	plain := trainOutOfCore(t, false)
	timed := trainOutOfCore(t, true)
	if !sameTrace(plain, timed) {
		t.Fatalf("decorated trace %v differs from undecorated %v", timed, plain)
	}
}
