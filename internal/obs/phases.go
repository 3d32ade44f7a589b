package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phases is the Observer behind the paper's per-stage breakdowns (Figure
// 1's phase curves and Table III): cumulative wall-clock time per stage.
// Every engine keeps one per rank; dist folds the ranks with MergeMax.
type Phases struct {
	mu     sync.Mutex
	totals map[string]time.Duration
}

// NewPhases creates an empty accumulator.
func NewPhases() *Phases {
	return &Phases{totals: map[string]time.Duration{}}
}

// Add folds a measured duration into a phase.
func (p *Phases) Add(name string, d time.Duration) {
	p.mu.Lock()
	p.totals[name] += d
	p.mu.Unlock()
}

// Total returns the cumulative time of a phase.
func (p *Phases) Total(name string) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.totals[name]
}

// Snapshot returns a copy of the totals map.
func (p *Phases) Snapshot() map[string]time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]time.Duration, len(p.totals))
	for k, v := range p.totals {
		out[k] = v
	}
	return out
}

// MergeMax folds another rank's totals in, keeping the larger total per
// phase — the right aggregation across ranks, where the slowest rank bounds
// the barrier-separated phase.
func (p *Phases) MergeMax(totals map[string]time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, v := range totals {
		if v > p.totals[k] {
			p.totals[k] = v
		}
	}
}

// Table renders a per-iteration breakdown like the paper's Table III:
// phase name and milliseconds per iteration, given the iteration count.
func (p *Phases) Table(iterations int) string {
	if iterations < 1 {
		iterations = 1
	}
	totals := p.Snapshot()
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s\n", "stage", "ms/iter")
	for _, name := range names {
		ms := float64(totals[name].Microseconds()) / 1000 / float64(iterations)
		fmt.Fprintf(&b, "%-28s %12.3f\n", name, ms)
	}
	return b.String()
}

// StageDone implements Observer: every interval but barrier wait counts,
// including those reported outside an iteration (NoIter).
func (p *Phases) StageDone(_ int, stage string, d time.Duration) {
	if stage != PhaseBarrier {
		p.Add(stage, d)
	}
}

func (*Phases) StageBegin(int, string) {}
func (*Phases) IterDone(int)           {}
func (*Phases) EvalDone(int, float64)  {}
