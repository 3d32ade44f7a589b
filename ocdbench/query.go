package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// The query mix every workload sends: half /topk, a fifth /members, the rest
// /shared, with uniformly drawn vertices and communities.
const (
	queryTopK = iota
	queryMembers
	queryShared
)

const (
	topK         = 5
	membersLimit = 20
)

type query struct {
	kind, a, b int
}

func drawQuery(rng *mathx.RNG, n, k int) query {
	switch p := rng.Float64(); {
	case p < 0.5:
		return query{kind: queryTopK, a: rng.Intn(n)}
	case p < 0.7:
		return query{kind: queryMembers, a: rng.Intn(k)}
	default:
		return query{kind: queryShared, a: rng.Intn(n), b: rng.Intn(n)}
	}
}

func (q query) path() string {
	switch q.kind {
	case queryTopK:
		return fmt.Sprintf("/topk?v=%d&k=%d", q.a, topK)
	case queryMembers:
		return fmt.Sprintf("/members?c=%d&limit=%d", q.a, membersLimit)
	default:
		return fmt.Sprintf("/shared?u=%d&v=%d", q.a, q.b)
	}
}

// answer asks the engine directly and renders the body the HTTP server
// would send for it, with the snapshot version it came from.
func (q query) answer(eng *serve.Engine) ([]byte, int, error) {
	var doc map[string]any
	var snap *store.Snapshot
	switch q.kind {
	case queryTopK:
		top, s, err := eng.TopK(q.a, topK)
		if err != nil {
			return nil, 0, err
		}
		snap, doc = s, map[string]any{"vertex": q.a, "version": s.Version, "topk": top}
	case queryMembers:
		members, s, err := eng.Members(q.a, membersLimit)
		if err != nil {
			return nil, 0, err
		}
		if members == nil {
			members = []serve.Member{}
		}
		snap, doc = s, map[string]any{"community": q.a, "version": s.Version, "members": members}
	default:
		shared, s, err := eng.SharedCommunity(q.a, q.b)
		if err != nil {
			return nil, 0, err
		}
		if shared == nil {
			shared = []serve.Membership{}
		}
		snap, doc = s, map[string]any{"u": q.a, "v": q.b, "version": s.Version,
			"share": len(shared) > 0, "shared": shared}
	}
	buf, err := json.Marshal(doc)
	return append(buf, '\n'), snap.Version, err
}

// loadStats is what one open-loop query session measured.
type loadStats struct {
	latencyMS []float64 // done − scheduled or actual send time (see run)
	lateMS    []float64 // actual send − scheduled send time
	ageMS     []float64 // X-Snapshot-Age-Ms
	sent      int
	failed    int
	checked   int // answers compared against the engine at the same version
}

// queryLoad is an open-loop client: one goroutine on one keep-alive
// connection sends queries on a fixed schedule of rate per second, whatever
// the server's speed. It stops after count queries, or when stop closes if
// count is 0.
type queryLoad struct {
	addr  string
	eng   *serve.Engine
	n, k  int
	seed  uint64
	rate  float64
	count int
	stop  <-chan struct{}
	spans *spanLog
}

// checkEvery selects which answers are compared against the engine.
const checkEvery = 8

// run drives the session and returns what it measured together with every
// correctness problem it saw.
func (l *queryLoad) run() (loadStats, []string) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	rng := mathx.NewRNG(l.seed)
	interval := time.Duration(float64(time.Second) / l.rate)
	var (
		st       loadStats
		problems []string
		lastVer  = -1
	)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	start := time.Now()
	var prevDone time.Time
	for i := 0; l.count == 0 || i < l.count; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if d := time.Until(sched); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-l.stop:
				return st, problems
			}
		} else if l.stopped() {
			return st, problems
		}
		q := drawQuery(rng, l.n, l.k)
		sent := time.Now()
		traceStart := obs.TraceNow()
		body, ver, age, err := get(client, "http://"+l.addr+q.path())
		done := time.Now()
		l.spans.add("serve.http_query", traceStart, obs.TraceNow()-traceStart)
		// A query still waiting on its predecessor at its send time is timed
		// from that send time, so a server stall is charged to every query
		// it delays. Otherwise it is timed from when it was sent: a client
		// timer waking late (most of a millisecond, on an idle virtual CPU)
		// is the generator's lateness, reported on its own.
		from := sent
		if prevDone.After(sched) {
			from = sched
		}
		prevDone = done
		st.sent++
		if err != nil {
			st.failed++
			if len(problems) < 5 {
				problems = append(problems, fmt.Sprintf("query %s: %v", q.path(), err))
			}
			continue
		}
		st.latencyMS = append(st.latencyMS, ms(done.Sub(from)))
		st.lateMS = append(st.lateMS, ms(sent.Sub(sched)))
		st.ageMS = append(st.ageMS, age)
		if ver < lastVer {
			problems = append(problems, fmt.Sprintf("X-Snapshot-Version went back from %d to %d", lastVer, ver))
		}
		lastVer = ver
		if i%checkEvery == 0 {
			want, wantVer, err := q.answer(l.eng)
			switch {
			case err != nil:
				problems = append(problems, fmt.Sprintf("engine %s: %v", q.path(), err))
			case wantVer != ver:
				// A newer version was published since the response; the
				// answer at the response's version is gone, so skip it.
			case !bytes.Equal(body, want):
				problems = append(problems, fmt.Sprintf("%s at version %d: served %q, engine %q", q.path(), ver, body, want))
			default:
				st.checked++
			}
		}
	}
	return st, problems
}

func (l *queryLoad) stopped() bool {
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

// get performs one query and returns its body, snapshot version and age; a
// non-200 status is an error.
func get(client *http.Client, url string) ([]byte, int, float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	ver, err := strconv.Atoi(resp.Header.Get(serve.HeaderVersion))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("bad %s header: %v", serve.HeaderVersion, err)
	}
	age, err := strconv.ParseFloat(resp.Header.Get(serve.HeaderAgeMS), 64)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("bad %s header: %v", serve.HeaderAgeMS, err)
	}
	return body, ver, age, nil
}

// record folds a query session into the run: every query is an attempted
// operation, every non-200 a failure, every problem a failed check.
func (r *run) record(st loadStats, problems []string) {
	for i := 0; i < st.sent; i++ {
		r.op(i < st.failed)
	}
	for _, p := range problems {
		r.check(false, "%s", p)
	}
	r.check(st.checked > 0, "no served answer could be compared against the engine")
	r.set("query_ms_p50", "ms", median(st.latencyMS))
	r.set("serve.query_ms_p99", "ms", p99(st.latencyMS))
	r.set("serve.snapshot_age_ms_p50", "ms", median(st.ageMS))
	r.set("serve.loadgen_late_ms_p99", "ms", p99(st.lateMS))
}

// engineQueries times the same query mix as direct serve.Engine calls: the
// serve layer without HTTP.
func (r *run) engineQueries(eng *serve.Engine, n, k int, count int) error {
	rng := mathx.NewRNG(r.seed + 7)
	us := make([]float64, 0, count)
	for i := 0; i < count; i++ {
		q := drawQuery(rng, n, k)
		d, err := r.spans.time("serve.Engine.query", func() error {
			_, _, err := q.answer(eng)
			return err
		})
		if err != nil {
			return err
		}
		us = append(us, float64(d)/1e3)
	}
	r.set("serve.engine_query_us_p50", "us", median(us))
	r.set("serve.engine_query_us_p99", "us", p99(us))
	return nil
}

// serveTrained is the serving half of the two fit workloads: publish the
// trained state through store.Publisher to a serve.Engine several times
// (seal → visible, timed), then answer an open-loop query session over HTTP
// against the final version. Training is over, so these numbers describe an
// otherwise idle server.
func (r *run) serveTrained(st *core.State, k int) error {
	pub := store.NewPublisher()
	eng := serve.NewEngine(0)
	eng.Attach(pub)
	local := store.NewLocal(st.Pi, st.PhiSum, k, 1)
	const publishes = 201
	var pubMS, sealMS, flipMS []float64
	settle()
	ticks := readCPUTicks()
	for v := 1; v <= publishes; v++ {
		var seal time.Duration
		d, err := r.spans.time("store.seal+publish", func() error {
			start := time.Now()
			snap, err := local.Snapshot(v, st.Beta)
			seal = time.Since(start)
			if err != nil {
				return err
			}
			return pub.Publish(snap)
		})
		r.op(err != nil)
		if err != nil {
			return err
		}
		pubMS = append(pubMS, ms(d))
		sealMS = append(sealMS, ms(seal))
		flipMS = append(flipMS, float64(pub.LastFlipNS())/1e6)
	}
	r.set("publish_ms_p50", "ms", median(pubMS)*(1-stealSince(ticks)))
	r.set("store.snapshot_ms_p50", "ms", median(sealMS))
	r.set("store.snapshot_mib", "MiB", float64(st.N*k*4)/mib)
	r.set("serve.flip_ms_p50", "ms", median(flipMS))

	settle()
	srv := serve.New("127.0.0.1:0", eng, pub)
	addr, err := srv.Start()
	if err != nil {
		return err
	}
	defer srv.Close()
	load := &queryLoad{addr: addr, eng: eng, n: st.N, k: k, seed: r.seed + 3,
		rate: queryRate, count: fitQueries, spans: r.spans}
	r.record(load.run())
	if r.traced {
		return r.engineQueries(eng, st.N, k, fitQueries)
	}
	return nil
}

// queryRate is every workload's open-loop query rate. One query takes well
// under a millisecond, so the client idles most of each interval and a slow
// moment does not cascade into a backlog; one core left over from
// outofcore-serve's single-threaded training sustains it. The fit workloads
// send fitQueries, so the p99 has twenty samples beyond it.
const (
	queryRate  = 400
	fitQueries = 2000
)
