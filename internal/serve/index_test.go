package serve

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// referenceMembers is the from-scratch builder the patched index must
// reproduce: one scan of every weight, then a sort of each member list by
// weight descending, ties by vertex id.
func referenceMembers(s *store.Snapshot, threshold float32) [][]Member {
	members := make([][]Member, s.K)
	for a := 0; a < s.N; a++ {
		for c, w := range s.PiRow(a) {
			if w >= threshold {
				members[c] = append(members[c], Member{Vertex: a, Weight: w})
			}
		}
	}
	for _, m := range members {
		sort.Slice(m, func(i, j int) bool {
			if m[i].Weight != m[j].Weight {
				return m[i].Weight > m[j].Weight
			}
			return m[i].Vertex < m[j].Vertex
		})
	}
	return members
}

// sameList reports whether a and b share one backing array (both empty
// counts as shared: there is nothing to copy).
func sameList(a, b []Member) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b)
	}
	return &a[0] == &b[0]
}

// indexChecker installs snapshots on one engine and checks every install
// against the reference builder, and that each community no changed row
// touches shares the previous version's list.
type indexChecker struct {
	t         *testing.T
	eng       *Engine
	threshold float32 // as passed to NewEngine
	version   int
}

func newIndexChecker(t *testing.T, threshold float32) *indexChecker {
	return &indexChecker{t: t, eng: NewEngine(threshold), threshold: threshold}
}

func (ic *indexChecker) install(n, k int, pi []float32) {
	t := ic.t
	t.Helper()
	ic.version++
	snap := &store.Snapshot{Version: ic.version, N: n, K: k, Pi: pi, SealedAt: time.Now()}
	prev := ic.eng.cur.Load()
	ic.eng.Install(snap)

	thr := ic.threshold
	if thr <= 0 {
		thr = DefaultThreshold(k)
	}
	want := referenceMembers(snap, thr)
	for c := 0; c < k; c++ {
		got, _, err := ic.eng.Members(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want[c]) {
			t.Fatalf("v%d community %d: patched list differs from the reference\n got  %v\n want %v",
				ic.version, c, got, want[c])
		}
	}
	if prev == nil || prev.snap.N != n || prev.snap.K != k {
		return
	}
	// A community is clean when no changed row clears the threshold there
	// before or after; its list must be the previous version's.
	dirty := make([]bool, k)
	for a := 0; a < n; a++ {
		was, row := prev.snap.PiRow(a), snap.PiRow(a)
		if slices.Equal(was, row) {
			continue
		}
		for c := range row {
			if was[c] >= thr || row[c] >= thr {
				dirty[c] = true
			}
		}
	}
	cur := ic.eng.cur.Load().idx
	for c := 0; c < k; c++ {
		if !dirty[c] && !sameList(cur.Members(c), prev.idx.Members(c)) {
			t.Fatalf("v%d community %d: untouched list was copied, not shared", ic.version, c)
		}
	}
}

// randomRow fills row with a few strong memberships over a weak floor. With
// levels > 0 every weight is one of levels fixed values, so equal weights —
// and therefore ties broken by vertex id — are common.
func randomRow(rng *rand.Rand, row []float32, levels int) {
	k := len(row)
	for c := range row {
		row[c] = 0.1 * rng.Float32() / float32(k)
	}
	for j := rng.Intn(4); j >= 0; j-- {
		row[rng.Intn(k)] = 0.05 + 0.9*rng.Float32()
	}
	if levels > 0 {
		for c, w := range row {
			row[c] = float32(math.Round(float64(w)*float64(levels))) / float32(levels)
		}
	}
}

func randomPi(rng *rand.Rand, n, k, levels int) []float32 {
	pi := make([]float32, n*k)
	for a := 0; a < n; a++ {
		randomRow(rng, pi[a*k:(a+1)*k], levels)
	}
	return pi
}

// TestPatchedIndexMatchesReference: over seeded sequences of installs, the
// index patched from the previous version must equal a from-scratch build
// of every snapshot, list for list, and share every list no change touches.
func TestPatchedIndexMatchesReference(t *testing.T) {
	const n, k, installs = 400, 16, 12

	t.Run("few-rows-changed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		ic := newIndexChecker(t, 0)
		pi := randomPi(rng, n, k, 0)
		ic.install(n, k, pi)
		for i := 0; i < installs; i++ {
			pi = slices.Clone(pi)
			for _, a := range rng.Perm(n)[:n/100] { // leaves clean communities
				randomRow(rng, pi[a*k:(a+1)*k], 0)
			}
			ic.install(n, k, pi)
		}
	})

	t.Run("threshold-crossings", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		ic := newIndexChecker(t, 0)
		thr := DefaultThreshold(k)
		pi := randomPi(rng, n, k, 0)
		ic.install(n, k, pi)
		for i := 0; i < installs; i++ {
			pi = slices.Clone(pi)
			for _, a := range rng.Perm(n)[:n/10] {
				// Move one member just below the cut-off and one weak entry
				// just above it (or exactly onto it).
				row := pi[a*k : (a+1)*k]
				for c, w := range row {
					if w >= thr {
						row[c] = math.Nextafter32(thr, 0)
						break
					}
				}
				c := rng.Intn(k)
				if row[c] < thr {
					row[c] = thr
					if rng.Intn(2) == 0 {
						row[c] = math.Nextafter32(thr, 1)
					}
				}
			}
			ic.install(n, k, pi)
		}
	})

	t.Run("equal-weights", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		ic := newIndexChecker(t, 0)
		pi := randomPi(rng, n, k, 8)
		ic.install(n, k, pi)
		for i := 0; i < installs; i++ {
			pi = slices.Clone(pi)
			for _, a := range rng.Perm(n)[:n/8] {
				randomRow(rng, pi[a*k:(a+1)*k], 8)
			}
			ic.install(n, k, pi)
		}
	})

	t.Run("all-rows-changed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		ic := newIndexChecker(t, 0)
		for i := 0; i < installs; i++ {
			ic.install(n, k, randomPi(rng, n, k, i%2*4))
		}
	})

	t.Run("no-rows-changed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		ic := newIndexChecker(t, 0)
		pi := randomPi(rng, n, k, 0)
		ic.install(n, k, pi)
		for i := 0; i < 3; i++ {
			prev := ic.eng.cur.Load().idx
			ic.install(n, k, slices.Clone(pi)) // equal values, new slab
			cur := ic.eng.cur.Load().idx
			for c := 0; c < k; c++ {
				if !sameList(cur.Members(c), prev.Members(c)) {
					t.Fatalf("republish of identical π copied community %d's list", c)
				}
			}
		}
	})

	t.Run("nan-rows", func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		ic := newIndexChecker(t, 0.05)
		nan := float32(math.NaN())
		pi := randomPi(rng, n, k, 0)
		ic.install(n, k, pi)
		for i := 0; i < installs; i++ {
			pi = slices.Clone(pi)
			for j, a := range rng.Perm(n)[:n/20] {
				row := pi[a*k : (a+1)*k]
				switch j % 3 {
				case 0: // the whole row
					for c := range row {
						row[c] = nan
					}
				case 1: // one entry, possibly a member
					row[rng.Intn(k)] = nan
				default: // back to finite weights
					randomRow(rng, row, 0)
				}
			}
			ic.install(n, k, pi)
		}
	})

	t.Run("single-community-and-single-vertex", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, shape := range [][2]int{{n, 1}, {1, k}, {1, 1}} {
			ic := newIndexChecker(t, 0.5)
			sn, sk := shape[0], shape[1]
			pi := make([]float32, sn*sk)
			for i := 0; i < installs; i++ {
				pi = slices.Clone(pi)
				for j := range pi {
					if rng.Intn(3) == 0 {
						pi[j] = rng.Float32()
					}
				}
				ic.install(sn, sk, pi)
			}
		}
	})

	t.Run("shape-changes", func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		ic := newIndexChecker(t, 0)
		for _, shape := range [][2]int{{n, k}, {n + 7, k}, {n + 7, k}, {n, k / 2}, {n / 2, k}, {n, k}} {
			ic.install(shape[0], shape[1], randomPi(rng, shape[0], shape[1], 0))
		}
	})
}

// TestBuildIndexMatchesReference: the exported from-scratch builder is the
// same function with nothing to patch.
func TestBuildIndexMatchesReference(t *testing.T) {
	const n, k = 300, 12
	rng := rand.New(rand.NewSource(9))
	snap := &store.Snapshot{Version: 1, N: n, K: k, Pi: randomPi(rng, n, k, 6)}
	ix := BuildIndex(snap, 0)
	if ix.Threshold != DefaultThreshold(k) {
		t.Fatalf("threshold %v, want the default %v", ix.Threshold, DefaultThreshold(k))
	}
	want := referenceMembers(snap, ix.Threshold)
	for c := 0; c < k; c++ {
		if !slices.Equal(ix.Members(c), want[c]) {
			t.Fatalf("community %d: %v, want %v", c, ix.Members(c), want[c])
		}
	}
}

// TestConcurrentPatchesArePure: patches built at once from one previous
// view, each for its own snapshot, must each equal the reference — a patch
// depends only on (prev, snapshot), whatever else is being built. Meaningful
// under -race.
func TestConcurrentPatchesArePure(t *testing.T) {
	const n, k, builders = 300, 16, 4
	rng := rand.New(rand.NewSource(10))
	base := &store.Snapshot{Version: 1, N: n, K: k, Pi: randomPi(rng, n, k, 0)}
	prev := &view{snap: base, idx: BuildIndex(base, 0)}
	snaps := make([]*store.Snapshot, builders)
	for i := range snaps {
		pi := slices.Clone(base.Pi)
		for _, a := range rng.Perm(n)[:n/10] {
			randomRow(rng, pi[a*k:(a+1)*k], 0)
		}
		snaps[i] = &store.Snapshot{Version: 2 + i, N: n, K: k, Pi: pi}
	}
	var wg sync.WaitGroup
	for _, s := range snaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				ix := buildIndex(prev, s, 0)
				want := referenceMembers(s, ix.Threshold)
				for c := 0; c < k; c++ {
					if !slices.Equal(ix.Members(c), want[c]) {
						t.Errorf("v%d community %d: concurrent patch differs from the reference", s.Version, c)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
