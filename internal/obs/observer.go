package obs

import "time"

// Observer is the engine's one observation path. engine.Loop brackets every
// stage with StageBegin/StageDone and ends each iteration with IterDone; the
// samplers add EvalDone after each perplexity evaluation. Sub-stages timed
// off the loop goroutine (the pipelined φ loader, the prefetched minibatch
// draw) arrive as duration-only StageDone reports, possibly concurrently, so
// implementations must be safe for that. Work between iterations
// (perplexity evaluation, the run total) reports with iter = NoIter.
type Observer interface {
	// StageBegin announces that stage is about to run within iteration iter.
	StageBegin(iter int, stage string)
	// StageDone reports one timed interval of stage within iteration iter.
	// A stage may report several intervals per iteration (the chunked φ
	// pipeline does); they accumulate.
	StageDone(iter int, stage string, d time.Duration)
	// IterDone marks the successful end of iteration iter.
	IterDone(iter int)
	// EvalDone reports a perplexity evaluation after iteration iter
	// (1-based, matching the engines' PerpPoint.Iter).
	EvalDone(iter int, perplexity float64)
}

// NoIter is the iteration of stage reports made outside any iteration.
// Phases totals them; RunRecorder and StageSpans, keyed by iteration, skip
// them.
const NoIter = -1

// PhaseBarrier is the stage name engine.Loop reports for unnamed wiring
// stages (the distributed engine's barriers), where straggler wait
// concentrates. Barrier wait is not work, so Phases and RunRecorder leave
// it out of Table III; spans and transport wait histograms still show it.
const PhaseBarrier = "barrier"

// Fanout is an Observer that forwards every report to each member in order.
type Fanout []Observer

// StageBegin implements Observer.
func (f Fanout) StageBegin(iter int, stage string) {
	for _, o := range f {
		o.StageBegin(iter, stage)
	}
}

// StageDone implements Observer.
func (f Fanout) StageDone(iter int, stage string, d time.Duration) {
	for _, o := range f {
		o.StageDone(iter, stage, d)
	}
}

// IterDone implements Observer.
func (f Fanout) IterDone(iter int) {
	for _, o := range f {
		o.IterDone(iter)
	}
}

// EvalDone implements Observer.
func (f Fanout) EvalDone(iter int, perplexity float64) {
	for _, o := range f {
		o.EvalDone(iter, perplexity)
	}
}

// PhaseLabels is the Observer that names each stage, as it begins, to an
// instrumented transport (cluster.Comm.SetPhase), which charges receive
// waits to the stage whose collectives caused them. Naming a phase opens its
// transport.wait.<stage> histogram, so attach it only with telemetry on.
type PhaseLabels func(stage string)

func (f PhaseLabels) StageBegin(_ int, stage string)     { f(stage) }
func (PhaseLabels) StageDone(int, string, time.Duration) {}
func (PhaseLabels) IterDone(int)                         {}
func (PhaseLabels) EvalDone(int, float64)                {}
