package distinct

import (
	"math"
	"slices"
)

// This file computes the estimators from a frequency-of-frequencies
// profile (f_j = number of groups observed exactly j times in t
// observations), in two representations. The map form serves the
// aggregation push-down of §4.2: when an aggregation sits on top of a
// join on the same attribute, the estimators run over the *estimated
// output distribution histogram* built during the join's probe pass
// rather than over a tuple stream. The dense form (profile) is what the
// online estimators maintain from group-count transitions. Both add
// their floating-point terms in ascending j, so one profile always
// evaluates to one value (Go's map order would make it several).

// profileCap bounds the dense profile: one Zipf(2) hot group walks its
// count through every j and must not size the slice. Groups past the cap
// are only counted. That loses nothing the online estimators read: the
// MLE term of a group seen j times is f_j·(p − p²) with
// p = (1−j/t)^t ≤ e^−j, which is exactly 0 in float64 from j = 746 on.
const profileCap = 768

// profile is the dense f_j profile: f[j] for j < profileCap, grown on
// demand, plus the number of groups at or past the cap.
type profile struct {
	f    []int64
	over int64
}

// shift moves one group from count n−1 to count n (n ≥ 1).
func (p *profile) shift(n int64) {
	switch {
	case n < profileCap:
		for n >= int64(len(p.f)) {
			// Growing 4x keeps the garbage of reaching the cap under half
			// its final size.
			grown := make([]int64, min(4*len(p.f)+16, profileCap))
			copy(grown, p.f)
			p.f = grown
		}
		p.f[n]++
		if n > 1 {
			p.f[n-1]--
		}
	case n == profileCap:
		p.f[n-1]--
		p.over++
	}
}

// mle evaluates the MLE formula for a profile of g groups.
func (p *profile) mle(g, t int64, total float64) float64 {
	if t == 0 {
		return 0
	}
	if float64(t) >= total {
		return float64(g)
	}
	newGroups := 0.0
	bound := deadTermBound(g, t)
	for j, fj := range p.f {
		if fj != 0 {
			if bound*expNegAt(int64(j)) < newGroups*0x1p-54 && newGroups >= 0x1p-900 {
				break
			}
			newGroups += mleTerm(int64(j), fj, float64(t))
		}
	}
	return float64(g) + newGroups
}

// mleTerm is the expected number of new groups in the next t reads among
// the f_j groups seen j times: f_j·[(1−j/t)^t − (1−j/t)^{2t}].
func mleTerm(j, fj int64, t float64) float64 {
	q := 1 - float64(j)/t
	if q <= 0 {
		return 0
	}
	pt := math.Pow(q, t)
	return float64(fj) * (pt - pt*pt)
}

// expNeg[j] is e^−j where that is a normal float64, +Inf (no bound: the
// sums never stop there) from j = 709 on.
var expNeg = func() (e [profileCap]float64) {
	for j := range e {
		if e[j] = math.Exp(-float64(j)); e[j] < 0x1p-1022 {
			e[j] = math.Inf(1)
		}
	}
	return e
}()

// expNegAt is expNeg[j], +Inf at or past profileCap.
func expNegAt(j int64) float64 {
	if j < profileCap {
		return expNeg[j]
	}
	return math.Inf(1)
}

// deadTermBound returns B such that, for every j, every MLE term of a
// profile of g groups at t observations, j or past, is below B·e^−j as
// computed — or +Inf when t is too large for the proof below. The
// ascending-j sums stop at the first j where B·expNegAt(j) < s·2^−54, s
// being the running sum and at least 2^−900: every term left is then
// below half an ulp of s, so adding it rounds back to s, and the result's
// bits are the full loop's.
//
// Proof. A term is f_j·(p − p²) ≤ g·p with p = q^t, q = 1 − j/t, and it
// is 0 unless j < t. Exactly, 1 − j/t ≤ e^{−j/t}. As computed, j/t and
// 1 − j/t each round by at most 2^−54 (both are below 1), so
// q ≤ e^{−j/t}·(1 + e·2^−53) and q^t ≤ e^−j·e^{e·t·2^−53} < 1.41·e^−j for
// t < 2^50. math.Pow squares the mantissa once per bit of t, adding a
// relative 2t·2^−53 ≤ 1/4 (a factor below 1.29), and a subnormal p an
// absolute 2^−1074; the term's own three operations add a relative 2^−52.
// So a term is below 1.83·g·e^−j + g·2^−1073. B·expNegAt(j) as computed
// (g, e^−j and their product each round, all normal) is above
// 1.99·g·e^−j, so once it is below s·2^−54 a term is below
// 0.92·s·2^−54 + 2^−1010 (g < 2^63), which s ≥ 2^−900 keeps below
// s·2^−54. And s·2^−54 is below half an ulp of s (for s in [2^e, 2^{e+1})
// half an ulp is 2^{e−53}); a later term, having a larger j, is below the
// same bound.
func deadTermBound(g, t int64) float64 {
	if t >= 1<<50 {
		return math.Inf(1)
	}
	return 2 * float64(g)
}

// ascending returns the profile's counts j in ascending order.
func ascending(freqs map[int64]int64) []int64 {
	js := make([]int64, 0, len(freqs))
	for j := range freqs {
		js = append(js, j)
	}
	slices.Sort(js)
	return js
}

// GEEFromProfile evaluates the GEE formula sqrt(total/t)·f₁ + Σ_{j≥2} f_j
// (integer sums: no order to fix).
func GEEFromProfile(freqs map[int64]int64, t int64, total float64) float64 {
	if t == 0 {
		return 0
	}
	if float64(t) >= total {
		var g int64
		for _, fj := range freqs {
			g += fj
		}
		return float64(g)
	}
	var f1, rest int64
	for j, fj := range freqs {
		if j == 1 {
			f1 = fj
		} else if j >= 2 {
			rest += fj
		}
	}
	return math.Sqrt(total/float64(t))*float64(f1) + float64(rest)
}

// MLEFromProfile evaluates the MLE formula
// ĝ + Σ_j f_j·[(1−j/t)^t − (1−j/t)^{2t}].
func MLEFromProfile(freqs map[int64]int64, t int64, total float64) float64 {
	return mleFromProfile(freqs, ascending(freqs), t, total)
}

func mleFromProfile(freqs map[int64]int64, js []int64, t int64, total float64) float64 {
	if t == 0 {
		return 0
	}
	var g int64
	for _, fj := range freqs {
		g += fj
	}
	if float64(t) >= total {
		return float64(g)
	}
	newGroups := 0.0
	bound := deadTermBound(g, t)
	for _, j := range js {
		if bound*expNegAt(j) < newGroups*0x1p-54 && newGroups >= 0x1p-900 {
			break
		}
		newGroups += mleTerm(j, freqs[j], float64(t))
	}
	return float64(g) + newGroups
}

// Gamma2FromProfile computes the squared coefficient of variation of the
// group frequencies described by the profile.
func Gamma2FromProfile(freqs map[int64]int64, t int64) float64 {
	return gamma2FromProfile(freqs, ascending(freqs), t)
}

func gamma2FromProfile(freqs map[int64]int64, js []int64, t int64) float64 {
	var g int64
	sumSq := 0.0
	for _, j := range js {
		fj := freqs[j]
		g += fj
		sumSq += float64(fj) * float64(j) * float64(j)
	}
	if g == 0 || t == 0 {
		return 0
	}
	mu := float64(t) / float64(g)
	variance := sumSq/float64(g) - mu*mu
	if variance < 0 {
		variance = 0
	}
	return variance / (mu * mu)
}

// ChooseFromProfile applies the paper's τ rule to a profile: it returns
// the MLE estimate when γ² < tau and the GEE estimate otherwise, along
// with which was used.
func ChooseFromProfile(freqs map[int64]int64, t int64, total, tau float64) (est float64, usedMLE bool) {
	js := ascending(freqs)
	if gamma2FromProfile(freqs, js, t) < tau {
		return mleFromProfile(freqs, js, t, total), true
	}
	return GEEFromProfile(freqs, t, total), false
}
