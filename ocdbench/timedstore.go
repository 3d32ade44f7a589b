package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// timedStore measures the store layer from outside: it wraps a PiStore and
// times every call into it. It forwards the optional capabilities the engine
// probes for — LocalReader (PhiStage picks its serial or pipelined schedule
// from it), Snapshotter (the publish stage seals through it) and PiWriter —
// so a decorated run executes exactly the program an undecorated one does.
type timedStore struct {
	ps    store.PiStore
	spans *spanLog // nil in untimed runs: counters only

	rowsRead        atomic.Int64
	readNS, writeNS atomic.Int64
	flushNS         atomic.Int64
	sealStart       atomic.Int64 // obs.TraceNow of the latest Snapshot call, 0 once taken
	snapshotMu      sync.Mutex
	snapshotMS      []float64
}

func newTimedStore(ps store.PiStore, spans *spanLog) *timedStore {
	return &timedStore{ps: ps, spans: spans}
}

func (t *timedStore) NumRows() int { return t.ps.NumRows() }
func (t *timedStore) K() int       { return t.ps.K() }

func (t *timedStore) ReadRows(ids []int32, dst *store.Rows) error {
	start := obs.TraceNow()
	err := t.ps.ReadRows(ids, dst)
	t.readDone(start, len(ids))
	return err
}

// ReadRowsAsync times the read from its issue until Wait returns.
func (t *timedStore) ReadRowsAsync(ids []int32, dst *store.Rows) (store.Pending, error) {
	start := obs.TraceNow()
	p, err := t.ps.ReadRowsAsync(ids, dst)
	if err != nil {
		t.readDone(start, len(ids))
		return nil, err
	}
	return timedPending{p: p, t: t, start: start, rows: len(ids)}, nil
}

type timedPending struct {
	p     store.Pending
	t     *timedStore
	start int64
	rows  int
}

func (w timedPending) Wait() error {
	err := w.p.Wait()
	w.t.readDone(w.start, w.rows)
	return err
}

func (t *timedStore) readDone(start int64, rows int) {
	d := obs.TraceNow() - start
	t.rowsRead.Add(int64(rows))
	t.readNS.Add(d)
	t.spans.add("store.ReadRows", start, d)
}

func (t *timedStore) WriteRows(ids []int32, phi []float64) error {
	start := obs.TraceNow()
	err := t.ps.WriteRows(ids, phi)
	d := obs.TraceNow() - start
	t.writeNS.Add(d)
	t.spans.add("store.WriteRows", start, d)
	return err
}

func (t *timedStore) Flush() error {
	start := obs.TraceNow()
	err := t.ps.Flush()
	d := obs.TraceNow() - start
	t.flushNS.Add(d)
	t.spans.add("store.Flush", start, d)
	return err
}

// ReadsAreLocal forwards store.LocalReader.
func (t *timedStore) ReadsAreLocal() bool { return store.ReadsAreLocal(t.ps) }

// Snapshot forwards store.Snapshotter and records the seal time; the start
// is kept so the caller can time seal-to-visible for the whole publication.
func (t *timedStore) Snapshot(version int, beta []float64) (*store.Snapshot, error) {
	sealer, ok := t.ps.(store.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("ocdbench: %T cannot seal snapshots", t.ps)
	}
	start := obs.TraceNow()
	t.sealStart.Store(start)
	snap, err := sealer.Snapshot(version, beta)
	d := obs.TraceNow() - start
	t.spans.add("store.Snapshot", start, d)
	t.snapshotMu.Lock()
	t.snapshotMS = append(t.snapshotMS, float64(d)/1e6)
	t.snapshotMu.Unlock()
	return snap, err
}

// takeSnapshotStart returns the start of the latest Snapshot call once.
func (t *timedStore) takeSnapshotStart() (int64, bool) {
	start := t.sealStart.Swap(0)
	return start, start != 0
}

// WritePiRows forwards store.PiWriter.
func (t *timedStore) WritePiRows(ids []int32, pi []float32, phiSum []float64) error {
	w, ok := t.ps.(store.PiWriter)
	if !ok {
		return fmt.Errorf("ocdbench: %T cannot store raw π rows", t.ps)
	}
	start := obs.TraceNow()
	err := w.WritePiRows(ids, pi, phiSum)
	d := obs.TraceNow() - start
	t.writeNS.Add(d)
	t.spans.add("store.WritePiRows", start, d)
	return err
}

func (t *timedStore) snapshotTimes() []float64 {
	t.snapshotMu.Lock()
	defer t.snapshotMu.Unlock()
	return append([]float64(nil), t.snapshotMS...)
}

// setStoreLayers reports the store.* read/write/flush layer over iters
// iterations.
func (r *run) setStoreLayers(t *timedStore, iters int) {
	it := float64(max(iters, 1))
	rows := t.rowsRead.Load()
	r.set("store.rows_read_per_iter", "count", float64(rows)/it)
	readUS := 0.0
	if rows > 0 {
		readUS = float64(t.readNS.Load()) / 1e3 / float64(rows)
	}
	r.set("store.read_us_per_row", "us", readUS)
	r.set("store.write_ms_per_iter", "ms", float64(t.writeNS.Load())/1e6/it)
	r.set("store.flush_ms_per_iter", "ms", float64(t.flushNS.Load())/1e6/it)
}

// spanLog is the benchmark's own span recorder: one obs.Tracer whose spans
// sit on their own track beside the engine's. A nil *spanLog records nothing,
// which is how untraced runs keep every layer boundary free of tracing cost.
type spanLog struct {
	tr *obs.Tracer
}

// benchTrack is the Chrome-trace thread the benchmark's own spans appear on,
// after the engine's engine/dkv-client/dkv-server tracks.
const benchTrack = 3

func newSpanLog() *spanLog { return &spanLog{tr: obs.NewTracer(0, 0)} }

func (s *spanLog) add(name string, start, dur int64) {
	if s == nil {
		return
	}
	s.tr.Emit(obs.Span{
		ID: s.tr.NewID(), Name: name, Cat: "bench", Track: benchTrack,
		Peer: obs.NoPeer, Iter: -1, StartNS: start, DurNS: dur,
	})
}

// time runs fn, records it as a span named name, and returns its duration.
func (s *spanLog) time(name string, fn func() error) (time.Duration, error) {
	start := obs.TraceNow()
	err := fn()
	d := obs.TraceNow() - start
	s.add(name, start, d)
	return time.Duration(d), err
}

// durationsMS returns the durations of every recorded span named name, in ms.
func (s *spanLog) durationsMS(name string) []float64 {
	if s == nil {
		return nil
	}
	var out []float64
	for _, sp := range s.tr.Bundle().Spans {
		if sp.Name == name {
			out = append(out, float64(sp.DurNS)/1e6)
		}
	}
	return out
}
