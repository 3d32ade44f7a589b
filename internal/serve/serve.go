// Package serve is the read tier that turns training output into a
// queryable product: a lock-free query engine over the current immutable π
// snapshot (store.Snapshot) plus an HTTP/JSON API (http.go).
//
// The data plane is RCU all the way down. The training engine seals a
// snapshot at a phase barrier and hands it to a store.Publisher; the
// publisher runs this package's subscriber — which patches the previous
// version's inverted index into the new one, off the read path — and then
// flips one atomic pointer. Every query loads that pointer exactly once, so
// each response is internally consistent with exactly one snapshot version
// even while the next iteration is being trained and published underneath
// it. Readers never take a lock; publishers never wait for readers.
//
// Member lists that no changed row touches are shared between consecutive
// versions (same backing array), so every list this package returns is
// read-only: callers must not modify it.
package serve

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/store"
)

// Membership is one (community, weight) entry of a vertex's π row.
type Membership struct {
	Community int     `json:"community"`
	Weight    float32 `json:"weight"`
}

// Member is one (vertex, weight) entry of a community's member list.
type Member struct {
	Vertex int     `json:"vertex"`
	Weight float32 `json:"weight"`
}

// Index is the per-snapshot inverted view: for each community, the member
// vertices whose membership weight clears the threshold, sorted by weight
// descending (ties by vertex id for determinism). It is built at publish
// time and never mutated, so reads need no synchronisation. Lists a publish
// does not touch are shared with the previous version's Index, so they must
// never be modified.
type Index struct {
	// Threshold is the membership cut-off used to build the lists.
	Threshold float32
	members   [][]Member
}

// Members returns community c's list (strongest first); nil when c is out
// of range. The list is shared across versions and must not be modified.
func (ix *Index) Members(c int) []Member {
	if c < 0 || c >= len(ix.members) {
		return nil
	}
	return ix.members[c]
}

// DefaultThreshold is the adaptive membership cut-off used when none is
// given: 1.5/K separates active memberships from the Dirichlet floor (the
// same default internal/metrics uses for covers).
func DefaultThreshold(k int) float32 { return 1.5 / float32(k) }

// BuildIndex assembles the inverted index of s from scratch: the
// nothing-to-patch case of the builder Engine.Install uses. The returned
// lists must not be modified.
func BuildIndex(s *store.Snapshot, threshold float32) *Index {
	return buildIndex(nil, s, threshold)
}

// buildIndex returns the inverted index of s, patched from prev — the view s
// replaces — when prev has the same N, K and threshold; otherwise (or when
// prev is nil) every row counts as changed. A row is changed when its bits
// differ from prev's row. That is exact: a row's index entries are a
// function of its bits, and a NaN, which never clears the threshold, is
// re-evaluated whenever its bits move. A community is dirty when a changed
// row clears the threshold there in prev (it is on prev's list) or in s; a
// clean community shares prev's list, a dirty one merges prev's list minus
// the changed rows with the changed rows' new entries. Cost: O(N·K) row
// compare plus O(changed·K + dirty members), and a sort of the changed
// entries only. The result is a pure function of (prev, s), so concurrent
// calls need no lock.
func buildIndex(prev *view, s *store.Snapshot, threshold float32) *Index {
	if threshold <= 0 {
		threshold = DefaultThreshold(s.K)
	}
	n, k := s.N, s.K
	patch := prev != nil && prev.snap.N == n && prev.snap.K == k && prev.idx.Threshold == threshold
	members := make([][]Member, k)
	if patch {
		copy(members, prev.idx.members)
	}
	// changed marks the rows to re-evaluate; fresh[c] collects their entries
	// in community c as member keys, in buffers reused across builds.
	changed := make([]bool, n)
	bufs := keyBufs.Get().(*[][]uint64)
	defer keyBufs.Put(bufs)
	if len(*bufs) < k {
		*bufs = append(*bufs, make([][]uint64, k-len(*bufs))...)
	}
	fresh := (*bufs)[:k]
	for c := range fresh {
		fresh[c] = fresh[c][:0]
	}
	for a := 0; a < n; a++ {
		row := s.PiRow(a)
		if patch && bytes.Equal(rowBits(row), rowBits(prev.snap.PiRow(a))) {
			continue
		}
		changed[a] = true
		for c, w := range row {
			if w >= threshold {
				fresh[c] = append(fresh[c], memberKey(w, a))
			}
		}
	}
	for c, old := range members {
		drop := 0
		for _, m := range old {
			if changed[m.Vertex] {
				drop++
			}
		}
		if drop == 0 && len(fresh[c]) == 0 {
			continue
		}
		size := len(old) - drop + len(fresh[c])
		if drop == len(old) { // nothing of old survives: skip its merge scan
			old = nil
		}
		slices.Sort(fresh[c])
		members[c] = mergeMembers(old, changed, fresh[c], size)
	}
	return &Index{Threshold: threshold, members: members}
}

// keyBufs recycles buildIndex's per-community key buffers, so a publish
// neither allocates nor regrows them once they have reached working size.
var keyBufs = sync.Pool{New: func() any { return new([][]uint64) }}

// rowBits views a row's float32 bits as bytes, so two rows compare bit for
// bit in one vectorised bytes.Equal.
func rowBits(row []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(row))), 4*len(row))
}

// memberKey packs a member into a key whose ascending order is the index
// order: weight descending, then vertex ascending. Only weights at or above
// a positive threshold are keyed, and the bits of positive floats order like
// their values, so inverting them reverses the weight order. Vertex ids take
// the low 32 bits.
func memberKey(w float32, vertex int) uint64 {
	return uint64(^math.Float32bits(w))<<32 | uint64(uint32(vertex))
}

func keyMember(key uint64) Member {
	return Member{Vertex: int(uint32(key)), Weight: math.Float32frombits(^uint32(key >> 32))}
}

// mergeMembers returns old without the changed vertices, merged with the
// sorted keys fresh into one list of exactly size members in index order
// (nil when empty), so the list holds no spare backing memory.
func mergeMembers(old []Member, changed []bool, fresh []uint64, size int) []Member {
	if size == 0 {
		return nil
	}
	out := make([]Member, size)
	i, j := 0, 0
	for _, m := range old {
		if changed[m.Vertex] {
			continue
		}
		mk := memberKey(m.Weight, m.Vertex)
		for ; j < len(fresh) && fresh[j] < mk; j++ {
			out[i] = keyMember(fresh[j])
			i++
		}
		out[i] = m
		i++
	}
	for _, key := range fresh[j:] {
		out[i] = keyMember(key)
		i++
	}
	return out
}

// view pairs a snapshot with its index; the engine flips one pointer to
// both, so a query can never see snapshot v with index v-1.
type view struct {
	snap *store.Snapshot
	idx  *Index
}

// Engine answers membership queries against the current snapshot. Install
// (or a subscribed Publisher) is the only writer; queries are wait-free
// pointer loads. The zero Engine is not ready — construct with NewEngine.
type Engine struct {
	cur       atomic.Pointer[view]
	threshold float32
}

// NewEngine returns an engine with the given membership threshold for its
// inverted indexes (<= 0 selects DefaultThreshold at install time).
func NewEngine(threshold float32) *Engine {
	return &Engine{threshold: threshold}
}

// Attach subscribes the engine to a publisher: every published snapshot is
// indexed and installed before the publisher's pointer flip completes, so
// the engine's version can never lag what the publisher reports current.
func (e *Engine) Attach(p *store.Publisher) {
	p.Subscribe(e.Install)
}

// Install indexes snap — patching the index of the view it replaces — and
// flips the engine's view to it.
func (e *Engine) Install(snap *store.Snapshot) {
	prev := e.cur.Load()
	e.cur.Store(&view{snap: snap, idx: buildIndex(prev, snap, e.threshold)})
}

// Ready reports whether a snapshot has been installed.
func (e *Engine) Ready() bool { return e.cur.Load() != nil }

// Snapshot returns the currently served snapshot (nil before the first
// install).
func (e *Engine) Snapshot() *store.Snapshot {
	if v := e.cur.Load(); v != nil {
		return v.snap
	}
	return nil
}

// ErrNotReady is returned (wrapped) by queries before the first snapshot.
var ErrNotReady = fmt.Errorf("serve: no snapshot published yet")

// load returns the current view or ErrNotReady. Each query calls it exactly
// once — the single atomic load that makes a response one-version-consistent.
func (e *Engine) load() (*view, error) {
	v := e.cur.Load()
	if v == nil {
		return nil, ErrNotReady
	}
	return v, nil
}

// TopK returns vertex v's k strongest community memberships (descending
// weight, ties by community id), with the snapshot they came from.
func (e *Engine) TopK(vertex, k int) ([]Membership, *store.Snapshot, error) {
	vw, err := e.load()
	if err != nil {
		return nil, nil, err
	}
	s := vw.snap
	if vertex < 0 || vertex >= s.N {
		return nil, s, fmt.Errorf("serve: vertex %d out of range [0,%d)", vertex, s.N)
	}
	if k <= 0 || k > s.K {
		k = s.K
	}
	row := s.PiRow(vertex)
	top := make([]Membership, 0, k)
	for c, w := range row {
		if len(top) < k {
			top = append(top, Membership{Community: c, Weight: w})
			if len(top) == k {
				sortMemberships(top)
			}
			continue
		}
		if w > top[k-1].Weight {
			top[k-1] = Membership{Community: c, Weight: w}
			// Re-sift the new entry into place (k is small; insertion beats
			// a heap for the serving workload's k ≈ 10).
			for i := k - 1; i > 0 && greater(top[i], top[i-1]); i-- {
				top[i], top[i-1] = top[i-1], top[i]
			}
		}
	}
	if len(top) < k {
		sortMemberships(top)
	}
	return top, s, nil
}

func greater(a, b Membership) bool {
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	return a.Community < b.Community
}

func sortMemberships(m []Membership) {
	sort.Slice(m, func(i, j int) bool { return greater(m[i], m[j]) })
}

// Members returns up to limit members of community c (strongest first) from
// the per-snapshot inverted index; limit <= 0 returns the whole list. The
// list is clipped to its length, so appending to it copies rather than
// writing into the index, but its elements are shared and must not be
// modified.
func (e *Engine) Members(c, limit int) ([]Member, *store.Snapshot, error) {
	vw, err := e.load()
	if err != nil {
		return nil, nil, err
	}
	s := vw.snap
	if c < 0 || c >= s.K {
		return nil, s, fmt.Errorf("serve: community %d out of range [0,%d)", c, s.K)
	}
	m := vw.idx.Members(c)
	if limit > 0 && limit < len(m) {
		m = m[:limit]
	}
	return slices.Clip(m), s, nil
}

// SharedCommunity reports the communities vertices u and v both belong to
// at the index's membership threshold, strongest (by the pairwise minimum
// weight) first. Share is true when the list is non-empty.
func (e *Engine) SharedCommunity(u, v int) ([]Membership, *store.Snapshot, error) {
	vw, err := e.load()
	if err != nil {
		return nil, nil, err
	}
	s := vw.snap
	if u < 0 || u >= s.N || v < 0 || v >= s.N {
		return nil, s, fmt.Errorf("serve: vertex pair (%d,%d) out of range [0,%d)", u, v, s.N)
	}
	thr := vw.idx.Threshold
	ru, rv := s.PiRow(u), s.PiRow(v)
	var shared []Membership
	for c := 0; c < s.K; c++ {
		if ru[c] >= thr && rv[c] >= thr {
			w := ru[c]
			if rv[c] < w {
				w = rv[c]
			}
			shared = append(shared, Membership{Community: c, Weight: w})
		}
	}
	sortMemberships(shared)
	return shared, s, nil
}

// Staleness returns the age of snapshot s at time now.
func Staleness(s *store.Snapshot, now time.Time) time.Duration {
	return now.Sub(s.SealedAt)
}
