package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPhasesAddAndTotals(t *testing.T) {
	p := NewPhases()
	p.Add("a", 10*time.Millisecond)
	p.Add("a", 20*time.Millisecond)
	p.Add("b", 5*time.Millisecond)
	if p.Total("a") != 30*time.Millisecond || p.Total("b") != 5*time.Millisecond {
		t.Fatalf("totals a=%v b=%v, want 30ms 5ms", p.Total("a"), p.Total("b"))
	}
	if p.Total("missing") != 0 {
		t.Fatal("Total of a missing phase should be 0")
	}
}

// TestPhasesObserver: as an Observer, Phases totals every StageDone —
// including reports made outside an iteration — except barrier wait.
func TestPhasesObserver(t *testing.T) {
	p := NewPhases()
	var o Observer = p
	o.StageBegin(0, "update_phi")
	o.StageDone(0, "update_phi", 3*time.Millisecond)
	o.StageDone(0, PhaseBarrier, time.Millisecond)
	o.StageDone(NoIter, "perplexity", 2*time.Millisecond)
	o.IterDone(0)
	o.EvalDone(1, 10)
	snap := p.Snapshot()
	if len(snap) != 2 || snap["update_phi"] != 3*time.Millisecond || snap["perplexity"] != 2*time.Millisecond {
		t.Fatalf("totals %v, want update_phi=3ms perplexity=2ms and no barrier", snap)
	}
}

// TestPhasesMergeMax: MergeMax keeps the larger total per phase, never
// lowers one, and carries phases it has not seen before.
func TestPhasesMergeMax(t *testing.T) {
	p := NewPhases()
	p.Add("a", 10*time.Millisecond)
	p.MergeMax(map[string]time.Duration{"a": 5 * time.Millisecond, "b": 7 * time.Millisecond})
	if got := p.Total("a"); got != 10*time.Millisecond {
		t.Errorf("MergeMax lowered a to %v, want 10ms", got)
	}
	if got := p.Total("b"); got != 7*time.Millisecond {
		t.Errorf("MergeMax dropped a new phase: b = %v, want 7ms", got)
	}
	p.MergeMax(map[string]time.Duration{"a": 30 * time.Millisecond})
	if got := p.Total("a"); got != 30*time.Millisecond {
		t.Errorf("MergeMax did not take the max: a = %v, want 30ms", got)
	}
}

// TestPhasesMergeAcrossRanks: folding every rank's snapshot keeps the
// slowest rank's total per phase and carries phases only some ranks report.
func TestPhasesMergeAcrossRanks(t *testing.T) {
	rank0, rank1 := NewPhases(), NewPhases()
	for i := 0; i < 4; i++ {
		rank0.Add("update_phi", 10*time.Millisecond)
		rank1.Add("update_phi", 20*time.Millisecond)
	}
	rank0.Add("draw_minibatch", time.Millisecond)

	merged := NewPhases()
	merged.MergeMax(rank0.Snapshot())
	merged.MergeMax(rank1.Snapshot())
	if got := merged.Total("update_phi"); got != 80*time.Millisecond {
		t.Errorf("merged update_phi = %v, want 80ms (max across ranks)", got)
	}
	if got := merged.Total("draw_minibatch"); got != time.Millisecond {
		t.Errorf("merged draw_minibatch = %v, want the master-only 1ms", got)
	}
}

func TestPhasesSnapshotIsCopy(t *testing.T) {
	p := NewPhases()
	p.Add("a", time.Second)
	snap := p.Snapshot()
	snap["a"] = 0
	if p.Total("a") != time.Second {
		t.Fatal("Snapshot aliases internal state")
	}
}

func TestPhasesTable(t *testing.T) {
	p := NewPhases()
	p.Add("update_phi", 100*time.Millisecond)
	out := p.Table(10)
	if !strings.Contains(out, "update_phi") || !strings.Contains(out, "10.000") {
		t.Fatalf("Table output wrong:\n%s", out)
	}
	// Zero iterations must not divide by zero.
	if out := p.Table(0); !strings.Contains(out, "100.000") {
		t.Fatalf("Table(0) should report totals per one iteration:\n%s", out)
	}
}

// TestPhasesTableRowsSorted: Table lists stages in name order, whatever
// order they were first reported in.
func TestPhasesTableRowsSorted(t *testing.T) {
	p := NewPhases()
	p.Add("zeta", 1)
	p.Add("alpha", 1)
	p.Add("mid", 1)
	out := p.Table(1)
	a, m, z := strings.Index(out, "alpha"), strings.Index(out, "mid"), strings.Index(out, "zeta")
	if a < 0 || m < 0 || z < 0 || !(a < m && m < z) {
		t.Fatalf("Table rows not sorted by name:\n%s", out)
	}
}

// TestPhasesConcurrentAdd: the pipelined φ loader and the prefetched
// minibatch draw report from their own goroutines; run under -race.
func TestPhasesConcurrentAdd(t *testing.T) {
	p := NewPhases()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				p.StageDone(0, "x", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := p.Total("x"); got != 8000*time.Microsecond {
		t.Fatalf("Total = %v, want 8ms", got)
	}
}
