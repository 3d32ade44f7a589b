package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"
)

func TestRunRecorderEmitsIterEvents(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSink(&buf)
	reg := NewRegistry()
	rec := NewRunRecorder(sink, 1, reg)

	rec.RunStart(2, 2)
	reg.Counter(CtrDKVRemoteKeys).Add(30)
	rec.StageDone(0, "update_phi", 2*time.Millisecond)
	rec.StageDone(0, "update_phi", time.Millisecond) // chunked stages accumulate
	rec.StageDone(0, "update_pi", time.Millisecond)
	rec.IterDone(0)
	reg.Counter(CtrDKVRemoteKeys).Add(12)
	rec.StageDone(1, "update_phi", time.Millisecond)
	rec.IterDone(1)
	rec.EvalDone(2, 99.5)
	rec.RunEnd(2)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5: %+v", len(events), events)
	}
	if events[0].Type != EventRunStart || events[0].Ranks != 2 {
		t.Errorf("run_start = %+v", events[0])
	}
	it0 := events[1]
	if it0.Type != EventIter || it0.Iter != 0 || it0.Rank != 1 {
		t.Fatalf("iter 0 event = %+v", it0)
	}
	if got := it0.StagesMS["update_phi"]; got < 3 {
		t.Errorf("update_phi ms = %v, want >= 3 (accumulated)", got)
	}
	if it0.DKV == nil || it0.DKV.RemoteKeys != 30 {
		t.Errorf("iter 0 DKV = %+v, want remote_keys 30", it0.DKV)
	}
	it1 := events[2]
	if it1.DKV == nil || it1.DKV.RemoteKeys != 12 {
		t.Errorf("iter 1 DKV = %+v, want delta 12", it1.DKV)
	}
	if _, ok := it1.StagesMS["update_pi"]; ok {
		t.Error("iter 1 carries iter 0's update_pi stage — stages not cleared")
	}
	if events[3].Type != EventPerplexity || events[3].Perplexity != 99.5 {
		t.Errorf("perplexity event = %+v", events[3])
	}
	if events[4].Type != EventRunEnd || events[4].DKV == nil || events[4].DKV.RemoteKeys != 42 {
		t.Errorf("run_end = %+v, want cumulative remote_keys 42", events[4])
	}

	// The monitor gauges reflect the run's progress.
	if got := reg.Gauge(GaugeIteration).Load(); got != 2 {
		t.Errorf("iteration gauge = %v, want 2", got)
	}
	if got := reg.Gauge(GaugePerplexity).Load(); got != 99.5 {
		t.Errorf("perplexity gauge = %v, want 99.5", got)
	}
	// Stage latencies feed histograms.
	if got := reg.Histogram("stage.update_phi").Snapshot().Count; got != 3 {
		t.Errorf("stage.update_phi histogram count = %d, want 3", got)
	}
}

func TestRunRecorderNilSinkAndRegistry(t *testing.T) {
	// Monitor-only (nil sink) and event-only (nil registry) recorders must
	// both be usable without panics.
	reg := NewRegistry()
	rec := NewRunRecorder(nil, 0, reg)
	rec.StageDone(0, "update_phi", time.Millisecond)
	rec.IterDone(0)
	if got := reg.Gauge(GaugeIteration).Load(); got != 1 {
		t.Errorf("iteration gauge = %v, want 1", got)
	}

	var buf bytes.Buffer
	rec2 := NewRunRecorder(NewSink(&buf), 0, nil)
	rec2.StageDone(0, "update_phi", time.Millisecond)
	rec2.IterDone(0)
	rec2.RunEnd(1)
}

// TestRunRecorderSkipsBarrierAndNoIter: barrier wait and reports made outside
// an iteration stay out of the iter events and the stage histograms.
func TestRunRecorderSkipsBarrierAndNoIter(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSink(&buf)
	reg := NewRegistry()
	rec := NewRunRecorder(sink, 0, reg)
	rec.StageBegin(0, "update_phi")
	rec.StageDone(0, "update_phi", time.Millisecond)
	rec.StageDone(0, PhaseBarrier, time.Millisecond)
	rec.IterDone(0)
	rec.StageDone(NoIter, "perplexity", time.Millisecond)
	rec.IterDone(1)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || len(events[0].StagesMS) != 1 || events[1].StagesMS != nil {
		t.Fatalf("iter events %+v, want only iter 0's update_phi", events)
	}
	for _, name := range []string{"stage." + PhaseBarrier, "stage.perplexity"} {
		if _, ok := reg.Snapshot().Histograms[name]; ok {
			t.Errorf("%s histogram created", name)
		}
	}
}

// TestRunRecorderStageDoneAllocFree pins the per-stage telemetry cost: once
// a stage's histogram handle is resolved, StageDone allocates nothing (it is
// called for every stage and every φ chunk).
func TestRunRecorderStageDoneAllocFree(t *testing.T) {
	rec := NewRunRecorder(nil, 0, NewRegistry())
	rec.StageDone(0, "update_phi.compute", time.Millisecond)
	allocs := testing.AllocsPerRun(100, func() {
		rec.StageDone(0, "update_phi.compute", time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("StageDone allocates %.1f allocs/op after warm-up, want 0", allocs)
	}
}

func TestMonitorServesRegistry(t *testing.T) {
	mon := NewMonitor("127.0.0.1:0")
	addr, err := mon.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	get := func() map[string]any {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("monitor response is not JSON: %v\n%s", err, body)
		}
		return doc
	}

	if doc := get(); doc["status"] != "waiting" {
		t.Errorf("pre-attach response = %v, want waiting status", doc)
	}

	reg := NewRegistry()
	reg.Counter(CtrDKVRequests).Add(7)
	reg.Gauge(GaugeIteration).Set(3)
	mon.Attach(reg)

	doc := get()
	counters, _ := doc["counters"].(map[string]any)
	if counters[CtrDKVRequests] != float64(7) {
		t.Errorf("monitor counters = %v, want %s=7", counters, CtrDKVRequests)
	}
	gauges, _ := doc["gauges"].(map[string]any)
	if gauges[GaugeIteration] != float64(3) {
		t.Errorf("monitor gauges = %v, want %s=3", gauges, GaugeIteration)
	}
}
