package expr

import "qpi/internal/data"

// This file holds EvalSel's selection kernels: one loop per comparison
// shape over a typed lane, with the operator switch hoisted out of the
// loop and one branch-free index write per row — out[w] = i, then w
// advances by the condition — so a row costs a load, a compare and a
// store whatever the selectivity. A kernel reads sel (nil: every row of
// the lane) and may write out over sel's own buffer: out[w] is written
// only once sel[w] has been read. NULLs never reach a kernel; the caller
// drops them first (dropNulls), and a NULL-free lane tests no bit per
// row.

// lane is the element type of a typed column lane.
type lane interface{ ~int64 | ~float64 | ~string }

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sized returns out resliced to n entries, reallocated only when its
// capacity is short, and never nil: a nil selection means every row.
func sized(out []int32, n int) []int32 {
	if cap(out) < n || out == nil {
		return make([]int32, n)
	}
	return out[:n]
}

// cmpForm reduces op to the comparison a kernel loop evaluates (LT, GT
// or NE) and a 0/1 flag XORed into its result: GE is NOT LT, LE is NOT
// GT and EQ is NOT NE. This is compareF64's NaN rule too — a NaN is
// neither less nor greater than anything, so it compares equal, and EQ
// must be !(x < k || x > k), never x == k.
func cmpForm(op CmpOp) (form CmpOp, neg int) {
	switch op {
	case GE:
		return LT, 1
	case LE:
		return GT, 1
	case EQ:
		return NE, 1
	}
	return op, 0
}

// selConst selects the rows whose lane value x satisfies x op k: an int
// lane against an int constant, a float lane against a number, a string
// lane against a string.
func selConst[T lane](op CmpOp, xs []T, k T, sel, out []int32) []int32 {
	form, neg := cmpForm(op)
	w := 0
	if sel == nil {
		out = sized(out, len(xs))
		switch form {
		case LT:
			for i, x := range xs {
				out[w] = int32(i)
				w += b2i(x < k) ^ neg
			}
		case GT:
			for i, x := range xs {
				out[w] = int32(i)
				w += b2i(x > k) ^ neg
			}
		default:
			for i, x := range xs {
				out[w] = int32(i)
				w += (b2i(x < k) | b2i(x > k)) ^ neg
			}
		}
		return out[:w]
	}
	out = sized(out, len(sel))
	switch form {
	case LT:
		for _, i := range sel {
			out[w] = i
			w += b2i(xs[i] < k) ^ neg
		}
	case GT:
		for _, i := range sel {
			out[w] = i
			w += b2i(xs[i] > k) ^ neg
		}
	default:
		for _, i := range sel {
			x := xs[i]
			out[w] = i
			w += (b2i(x < k) | b2i(x > k)) ^ neg
		}
	}
	return out[:w]
}

// selIntFloat is selConst for an int lane against a float constant,
// which data.Compare compares as float64.
func selIntFloat(op CmpOp, xs []int64, k float64, sel, out []int32) []int32 {
	form, neg := cmpForm(op)
	w := 0
	if sel == nil {
		out = sized(out, len(xs))
		switch form {
		case LT:
			for i, x := range xs {
				out[w] = int32(i)
				w += b2i(float64(x) < k) ^ neg
			}
		case GT:
			for i, x := range xs {
				out[w] = int32(i)
				w += b2i(float64(x) > k) ^ neg
			}
		default:
			for i, x := range xs {
				f := float64(x)
				out[w] = int32(i)
				w += (b2i(f < k) | b2i(f > k)) ^ neg
			}
		}
		return out[:w]
	}
	out = sized(out, len(sel))
	switch form {
	case LT:
		for _, i := range sel {
			out[w] = i
			w += b2i(float64(xs[i]) < k) ^ neg
		}
	case GT:
		for _, i := range sel {
			out[w] = i
			w += b2i(float64(xs[i]) > k) ^ neg
		}
	default:
		for _, i := range sel {
			f := float64(xs[i])
			out[w] = i
			w += (b2i(f < k) | b2i(f > k)) ^ neg
		}
	}
	return out[:w]
}

// selCols selects the rows where xs[i] op ys[i], for two lanes of one
// kind. x > y is y < x, so GT and LE run the LT loop over the swapped
// lanes.
func selCols[T lane](op CmpOp, xs, ys []T, sel, out []int32) []int32 {
	form, neg := cmpForm(op)
	if form == GT {
		xs, ys, form = ys, xs, LT
	}
	w := 0
	if sel == nil {
		out = sized(out, len(xs))
		ys = ys[:len(xs)]
		if form == LT {
			for i, x := range xs {
				out[w] = int32(i)
				w += b2i(x < ys[i]) ^ neg
			}
		} else {
			for i, x := range xs {
				y := ys[i]
				out[w] = int32(i)
				w += (b2i(x < y) | b2i(y < x)) ^ neg
			}
		}
		return out[:w]
	}
	out = sized(out, len(sel))
	if form == LT {
		for _, i := range sel {
			out[w] = i
			w += b2i(xs[i] < ys[i]) ^ neg
		}
	} else {
		for _, i := range sel {
			x, y := xs[i], ys[i]
			out[w] = i
			w += (b2i(x < y) | b2i(y < x)) ^ neg
		}
	}
	return out[:w]
}

// selRange selects the rows of an int lane with lo <= x <= hi (lo <= hi)
// in one compare: x - lo wraps below zero to above hi - lo.
func selRange(xs []int64, lo, hi int64, sel, out []int32) []int32 {
	span := uint64(hi - lo)
	w := 0
	if sel == nil {
		out = sized(out, len(xs))
		for i, x := range xs {
			out[w] = int32(i)
			w += b2i(uint64(x-lo) <= span)
		}
		return out[:w]
	}
	out = sized(out, len(sel))
	for _, i := range sel {
		out[w] = i
		w += b2i(uint64(xs[i]-lo) <= span)
	}
	return out[:w]
}

// dropNulls narrows sel (nil: rows 0..n-1) to the rows whose bit in nulls
// is clear and returns the result as both the kernel's input selection
// and its output buffer, so the kernel then narrows it in place. With no
// bit set it returns sel and out untouched. A nil sel is cleared one
// 64-row word at a time.
func dropNulls(nulls data.Bitmap, n int, sel, out []int32) ([]int32, []int32) {
	if !nulls.Any() {
		return sel, out
	}
	w := 0
	if sel == nil {
		out = sized(out, n)
		for base := 0; base < n; base += 64 {
			live := ^uint64(0)
			if word := base >> 6; word < len(nulls) {
				live = ^nulls[word]
			}
			for j := range min(64, n-base) {
				out[w] = int32(base + j)
				w += int(live >> uint(j) & 1)
			}
		}
	} else {
		out = sized(out, len(sel))
		for _, i := range sel {
			out[w] = i
			w += b2i(!nulls.Get(int(i)))
		}
	}
	return out[:w], out[:w]
}
