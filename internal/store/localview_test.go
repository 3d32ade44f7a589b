package store

import (
	"math"
	"slices"
	"testing"
)

// patternLocal returns an n×k LocalStore whose row a holds a*10+j in column
// j and Σφ = a — the pattern checkInitRow expects — plus its backing slices.
func patternLocal(t *testing.T, n, k int) (*LocalStore, []float32, []float64) {
	t.Helper()
	pi := make([]float32, n*k)
	phiSum := make([]float64, n)
	for a := 0; a < n; a++ {
		for j := 0; j < k; j++ {
			pi[a*k+j] = float32(a*10 + j)
		}
		phiSum[a] = float64(a)
	}
	return NewLocal(pi, phiSum, k, 1), pi, phiSum
}

// copiedRows is the copying read every backend used to perform: the
// reference a local view must be indistinguishable from.
func copiedRows(pi []float32, phiSum []float64, k int, ids []int32) ([][]float32, []float64) {
	rows := make([][]float32, len(ids))
	sums := make([]float64, len(ids))
	for i, id := range ids {
		rows[i] = slices.Clone(pi[int(id)*k : (int(id)+1)*k])
		sums[i] = phiSum[id]
	}
	return rows, sums
}

func checkRows(t *testing.T, what string, got *Rows, wantPi [][]float32, wantSum []float64) {
	t.Helper()
	if got.Len() != len(wantSum) {
		t.Fatalf("%s: %d rows, want %d", what, got.Len(), len(wantSum))
	}
	for i := range wantSum {
		if math.Float64bits(got.PhiSum[i]) != math.Float64bits(wantSum[i]) {
			t.Fatalf("%s: row %d Σφ = %v, want %v", what, i, got.PhiSum[i], wantSum[i])
		}
		if !slices.Equal(got.PiRow(i), wantPi[i]) {
			t.Fatalf("%s: row %d π = %v, want %v", what, i, got.PiRow(i), wantPi[i])
		}
	}
}

func TestLocalViewMatchesCopy(t *testing.T) {
	const n, k = 12, 5
	ls, pi, phiSum := patternLocal(t, n, k)
	ids := []int32{7, 0, 7, 11, 3, 3, 0}
	var rows Rows
	if err := ls.ReadRows(ids, &rows); err != nil {
		t.Fatal(err)
	}
	wantPi, wantSum := copiedRows(pi, phiSum, k, ids)
	checkRows(t, "local view", &rows, wantPi, wantSum)

	// A shorter second read into the same Rows replaces the first.
	ids2 := []int32{2}
	if err := ls.ReadRows(ids2, &rows); err != nil {
		t.Fatal(err)
	}
	wantPi, wantSum = copiedRows(pi, phiSum, k, ids2)
	checkRows(t, "second local view", &rows, wantPi, wantSum)

	if err := ls.ReadRows(nil, &rows); err != nil || rows.Len() != 0 {
		t.Fatalf("empty read: %d rows, err %v", rows.Len(), err)
	}
}

func TestLocalViewOwnsIDs(t *testing.T) {
	const n, k = 8, 3
	ls, pi, phiSum := patternLocal(t, n, k)
	ids := []int32{1, 4, 6}
	wantPi, wantSum := copiedRows(pi, phiSum, k, ids)
	var rows Rows
	if err := ls.ReadRows(ids, &rows); err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		ids[i] = 0
	}
	checkRows(t, "after the caller reused its ids", &rows, wantPi, wantSum)
}

func TestLocalViewIgnoresUnrelatedWrite(t *testing.T) {
	const n, k = 8, 3
	ls, pi, phiSum := patternLocal(t, n, k)
	ids := []int32{2, 5}
	wantPi, wantSum := copiedRows(pi, phiSum, k, ids)
	var rows Rows
	if err := ls.ReadRows(ids, &rows); err != nil {
		t.Fatal(err)
	}
	if err := ls.WriteRows([]int32{3}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	checkRows(t, "after a write to another row", &rows, wantPi, wantSum)
}

// TestRowsResetDropsView reuses one Rows for a local read and then for reads
// from copying backends: those decode into the buffer Reset hands out, which
// must never be the LocalStore's π.
func TestRowsResetDropsView(t *testing.T) {
	const n, k = 40, 3
	ls, pi, phiSum := patternLocal(t, n, k)
	// Make the local rows differ from the pattern the other backends hold.
	for i := range pi {
		pi[i] = -pi[i] - 1
	}
	before := slices.Clone(pi)
	beforeSum := slices.Clone(phiSum)

	mm := initMmap(t, n, k, MmapOptions{ShardRows: 16})
	tier := tierFixture(t, n, 0, k, 4, nil)
	ids := []int32{0, 9, 17, 9, 39}
	for _, other := range []struct {
		name string
		ps   PiStore
	}{{"mmap", mm}, {"tier", tier}} {
		var rows Rows
		if err := ls.ReadRows(ids, &rows); err != nil {
			t.Fatal(err)
		}
		if err := other.ps.ReadRows(ids, &rows); err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			checkInitRow(t, &rows, i, id, k)
		}
		if !slices.Equal(pi, before) || !slices.Equal(phiSum, beforeSum) {
			t.Fatalf("%s read through a reused Rows wrote into the LocalStore's state", other.name)
		}
		// And back: a local read after a copying one is a view again.
		if err := ls.ReadRows(ids, &rows); err != nil {
			t.Fatal(err)
		}
		wantPi, wantSum := copiedRows(pi, phiSum, k, ids)
		checkRows(t, "local after "+other.name, &rows, wantPi, wantSum)
	}
}

func TestTieredOverLocalMatchesDirect(t *testing.T) {
	const n, k = 32, 4
	ls, _, _ := patternLocal(t, n, k)
	tier, err := NewTiered(ls, nil, 6, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]int32{{1, 2, 3, 2}, {3, 30, 1, 7, 7}, {31, 0, 2}, {1, 2, 3, 2}}
	for round, ids := range batches {
		var direct, tiered Rows
		if err := ls.ReadRows(ids, &direct); err != nil {
			t.Fatal(err)
		}
		if err := tier.ReadRows(ids, &tiered); err != nil {
			t.Fatal(err)
		}
		wantPi := make([][]float32, len(ids))
		for i := range ids {
			wantPi[i] = direct.PiRow(i)
		}
		checkRows(t, "tier over local", &tiered, wantPi, direct.PhiSum)
		if round == len(batches)-1 && tier.Stats().HotHits == 0 {
			t.Fatal("repeated batch never hit the hot tier; the test does not cover it")
		}
	}
}
