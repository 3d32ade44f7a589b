package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/sampling"
	"repro/internal/store"
)

// remoteStore hides a store's LocalReader capability, so plan() keeps the
// pipelined schedule a remote backend would run.
type remoteStore struct{ store.PiStore }

// phiFixture builds a state, both neighbor strategies over the held-out
// view, and a minibatch of n distinct vertices.
func phiFixture(t *testing.T, n int) (Config, *State, map[string]sampling.NeighborStrategy, []int32) {
	t.Helper()
	train, held := plantedFixture(t, 1200, 6, 12000, 41)
	cfg := DefaultConfig(6, 9)
	s, err := NewState(cfg, train.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	set := graph.NewEdgeSet(held.Len())
	for _, e := range held.Pairs {
		set.Add(e)
	}
	view := sampling.NewGraphView(train, &set)
	uniform, err := sampling.NewUniformNeighbors(view, 24)
	if err != nil {
		t.Fatal(err)
	}
	lpu, err := sampling.NewLinkPlusUniform(view, 24)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int32, n)
	for i := range nodes {
		nodes[i] = int32(i * 7 % train.NumVertices())
	}
	return cfg, s, map[string]sampling.NeighborStrategy{"uniform": uniform, "link-plus-uniform": lpu}, nodes
}

// TestPhiStageDeterministicAcrossThreads checks that the parallel load —
// each worker sampling its own vertices — gives bit-identical φ for any
// thread count, on the fused serial schedule of a local store and on the
// pipelined schedule of a remote one, for both neighbor strategies.
func TestPhiStageDeterministicAcrossThreads(t *testing.T) {
	cfg, s, strategies, nodes := phiFixture(t, 300)
	k := cfg.K
	local := store.NewLocal(s.Pi, s.PhiSum, k, 1)
	schedules := []struct {
		name      string
		ps        store.PiStore
		pipelined bool
	}{
		{"serial", local, false},
		{"pipelined", remoteStore{local}, true},
	}
	for name, neigh := range strategies {
		var want []float64
		for _, sch := range schedules {
			for _, threads := range []int{1, 2, 4} {
				stage := &PhiStage{Cfg: &cfg, Store: sch.ps, Neigh: neigh, Threads: threads,
					Pipelined: sch.pipelined, ChunkNodes: 64}
				if pipelined, _, _ := stage.plan(len(nodes)); pipelined != sch.pipelined {
					t.Fatalf("%s: plan pipelined = %v, want %v", sch.name, pipelined, sch.pipelined)
				}
				got := make([]float64, len(nodes)*k)
				if err := stage.Run(3, 0.01, nodes, s.Beta, got); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
					continue
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s %s threads=%d: newPhi[%d] = %v, want %v (serial, 1 thread)",
							name, sch.name, threads, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestPhiStageAllocsIndependentOfMinibatch guards the steady-state
// allocation contract of a warmed PhiStage: a 1024-vertex minibatch costs
// the same constant goroutine and closure headers as a 256-vertex one —
// nothing per vertex, per neighbor or per π row.
func TestPhiStageAllocsIndependentOfMinibatch(t *testing.T) {
	cfg, s, strategies, nodes := phiFixture(t, 1024)
	k := cfg.K
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			stage := &PhiStage{Cfg: &cfg, Store: store.NewLocal(s.Pi, s.PhiSum, k, threads),
				Neigh: strategies["link-plus-uniform"], Threads: threads}
			newPhi := make([]float64, len(nodes)*k)
			run := func(n int) {
				if err := stage.Run(5, 0.01, nodes[:n], s.Beta, newPhi[:n*k]); err != nil {
					t.Fatal(err)
				}
			}
			run(len(nodes)) // warm-up: size the persistent buffers
			small := testing.AllocsPerRun(20, func() { run(256) })
			large := testing.AllocsPerRun(20, func() { run(1024) })
			if small != large {
				t.Fatalf("allocs per Run: %v at 256 vertices, %v at 1024; want equal", small, large)
			}
			if large > 32 {
				t.Fatalf("allocs per Run = %v, want a small constant", large)
			}
			t.Logf("allocs per Run: %v", large)
		})
	}
}
