package data

import (
	"math/rand"
	"testing"
)

// Property test of the lane-to-lane output gather: GatherFrom must be
// byte-identical to the row-major gather (per-row ValueAt + AppendVal)
// on every batch shape the join emits — selection-vector'd sources,
// NULL-heavy lanes, mixed-kind columns, kind-conflicting destinations
// and the negative indexes the probe-outer join uses to NULL-pad its
// build columns.

// rowMajorGather is the reference implementation: one Value per row.
func rowMajorGather(dst *ColVec, src *ColVec, idx []int32, base int) {
	for k, i := range idx {
		if src == nil || i < 0 {
			dst.appendVal(base+k, Null())
			continue
		}
		dst.appendVal(base+k, src.ValueAt(int(i)))
	}
}

func TestGatherFromMatchesRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(BatchSize()+1)
		w := 1 + rng.Intn(4)
		rows := randColRows(rng, n, w)
		var src ColBatch
		src.FromTuples(rows, w)

		// Half the trials gather through a selection vector (the idx
		// entries are physical rows drawn from the live set, as the join
		// produces them); a sprinkle of -1 entries NULL-pads.
		live := make([]int32, 0, n)
		if rng.Intn(2) == 0 {
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 {
					live = append(live, int32(i))
				}
			}
			src.Sel = live
		} else {
			for i := 0; i < n; i++ {
				live = append(live, int32(i))
			}
		}
		nIdx := rng.Intn(2 * n)
		idx := make([]int32, nIdx)
		for k := range idx {
			if rng.Intn(8) == 0 || len(live) == 0 {
				idx[k] = -1
			} else {
				idx[k] = live[rng.Intn(len(live))]
			}
		}

		// A random prefix below base exercises appends into non-empty
		// destinations, including kind conflicts with the gathered lane.
		base := rng.Intn(4)
		prefix := randColRows(rng, base, w)

		for c := 0; c < w; c++ {
			sv := src.Col(c)
			if rng.Intn(12) == 0 {
				sv = nil // outer-join build side of an empty partition
			}
			var got, want ColVec
			for r := 0; r < base; r++ {
				got.appendVal(r, prefix[r][c])
				want.appendVal(r, prefix[r][c])
			}
			got.GatherFrom(sv, idx, base)
			rowMajorGather(&want, sv, idx, base)
			for r := 0; r < base+nIdx; r++ {
				g, x := got.ValueAt(r), want.ValueAt(r)
				if g != x {
					t.Fatalf("trial %d col %d row %d: GatherFrom=%v rowMajor=%v (src kind %v, base %d)",
						trial, c, r, g, x, src.Col(c).Kind, base)
				}
			}
		}
	}
}

// Property test of the partition scatter's column kernel: AppendRowsFrom
// over a batch's row indexes grouped by partition must leave every
// partition exactly as appending the same rows one at a time with
// AppendFrom does — same values, same kind, same homogeneous/tagged form
// — for all three kinds, NULL runs, all-NULL and mixed-kind columns,
// kinds that first appear after a partition already holds rows, every
// selection shape (none, empty, sparse), 1–256 partitions, lane- and
// row-backed sources, and batch sizes around BatchSize().

// scatterTestRows draws n rows whose columns each follow their own kind
// profile; a quarter of the columns also get one long run of NULLs.
func scatterTestRows(rng *rand.Rand, n, w int) []Tuple {
	profiles := [][]Kind{
		{KindInt}, {KindFloat}, {KindString},
		{KindInt, KindNull}, {KindFloat, KindNull}, {KindString, KindNull},
		{KindNull},
		{KindInt, KindFloat, KindString, KindNull},
	}
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = make(Tuple, w)
	}
	for c := 0; c < w; c++ {
		profile := profiles[rng.Intn(len(profiles))]
		for i := range rows {
			rows[i][c] = randColValue(rng, profile)
		}
		if n > 0 && rng.Intn(4) == 0 {
			lo := rng.Intn(n)
			hi := min(n, lo+1+rng.Intn(n))
			for i := lo; i < hi; i++ {
				rows[i][c] = Null()
			}
		}
	}
	return rows
}

func TestAppendRowsFromMatchesRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	sizes := []int{0, 1, 37, BatchSize() - 1, BatchSize(), BatchSize() + 1}
	for trial := 0; trial < 150; trial++ {
		w := 1 + rng.Intn(4)
		parts := 1 + rng.Intn(256)
		got, want := make([]ColBatch, parts), make([]ColBatch, parts)
		for p := range got {
			got[p].BeginBuild(w)
			want[p].BeginBuild(w)
		}
		// Consecutive input batches draw fresh column profiles, so a
		// partition meets new kinds (and kind conflicts) after it has rows.
		for batches := 1 + rng.Intn(4); batches > 0; batches-- {
			n := sizes[rng.Intn(len(sizes))]
			rows := scatterTestRows(rng, n, w)
			// Two images of the same rows: the kernel must not depend on
			// which columns the reference happened to pivot.
			var src, ref ColBatch
			ref.FromTuples(rows, w)
			if rng.Intn(2) == 0 {
				src.FromTuples(rows, w)
			} else {
				src.SetRows(rows, w)
			}
			live := make([]int32, 0, n)
			switch rng.Intn(3) {
			case 0: // no selection
				for i := 0; i < n; i++ {
					live = append(live, int32(i))
				}
			case 1: // sparse selection
				for i := 0; i < n; i++ {
					if rng.Intn(3) == 0 {
						live = append(live, int32(i))
					}
				}
				src.Sel = live
			default: // empty selection
				src.Sel = live
			}
			groups := make([][]int32, parts)
			for _, i := range live {
				p := rng.Intn(parts)
				groups[p] = append(groups[p], i)
				want[p].AppendFrom(&ref, int(i))
			}
			for p, idx := range groups {
				got[p].AppendRowsFrom(&src, idx)
			}
		}
		for p := range got {
			if got[p].NRows != want[p].NRows {
				t.Fatalf("trial %d partition %d: %d rows, row-major append has %d", trial, p, got[p].NRows, want[p].NRows)
			}
			for c := 0; c < w; c++ {
				g, x := got[p].Col(c), want[p].Col(c)
				if g.Kind != x.Kind || g.Homogeneous() != x.Homogeneous() {
					t.Fatalf("trial %d partition %d col %d: kind %v homogeneous %v, row-major append has %v %v",
						trial, p, c, g.Kind, g.Homogeneous(), x.Kind, x.Homogeneous())
				}
				for r := 0; r < got[p].NRows; r++ {
					if gv, xv := g.ValueAt(r), x.ValueAt(r); gv != xv {
						t.Fatalf("trial %d partition %d col %d row %d: AppendRowsFrom=%v AppendFrom=%v", trial, p, c, r, gv, xv)
					}
				}
			}
		}
	}
}
