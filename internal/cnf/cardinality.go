package cnf

import (
	"errors"
	"fmt"

	"repro/internal/sat"
)

// CardEncoding selects a cardinality-constraint encoding.
type CardEncoding int

// Available encodings. SeqCounter (Sinz's sequential unary counter) is
// the default: it exposes an "at least j" ladder, so the paper's
// incremental limit loop (Figure 3, line 2) becomes one assumption
// literal per stage. Pairwise suits tiny bounds; Totalizer is the
// tree-shaped alternative used for the encoding ablation.
const (
	SeqCounter CardEncoding = iota
	Totalizer
	Pairwise
)

// String names the encoding.
func (e CardEncoding) String() string {
	switch e {
	case SeqCounter:
		return "seqcounter"
	case Totalizer:
		return "totalizer"
	case Pairwise:
		return "pairwise"
	default:
		return fmt.Sprintf("CardEncoding(%d)", int(e))
	}
}

// Ladder exposes unary counter outputs over a literal set: AtLeast[j]
// (1-based) is implied true whenever at least j of the inputs are true.
// Assuming its negation therefore enforces "at most j-1". The ladder is
// one-way (inputs imply counters), which is sufficient and cheapest for
// bounding.
type Ladder struct {
	atLeast []sat.Lit // index j-1 holds the "≥ j" literal
	n       int       // number of input literals
}

// Width returns the highest representable count.
func (l *Ladder) Width() int { return len(l.atLeast) }

// AtMost returns an assumption literal enforcing that at most bound of
// the inputs are true. Bounds at or above the ladder width (or the input
// count) need no constraint and yield LitUndef, which Solve treats as an
// absent assumption when filtered by the caller. A negative bound is
// clamped to 0, the tightest enforceable constraint — AtMost is total so
// no caller-supplied bound can crash a shared server.
func (l *Ladder) AtMost(bound int) sat.Lit {
	if bound < 0 {
		bound = 0
	}
	if bound >= l.n || bound >= len(l.atLeast) {
		return sat.LitUndef
	}
	return l.atLeast[bound].Neg() // ¬(≥ bound+1)
}

// ErrBadEncoding reports an out-of-range CardEncoding value. It is a
// returned error (not a panic) so a malformed request that slips past
// the HTTP layer's encoding validation degrades to a 4xx, never a crash.
var ErrBadEncoding = errors.New("cnf: unknown cardinality encoding")

// AddLadder builds a cardinality ladder over lits able to bound up to
// maxBound (counter width maxBound+1), using the requested encoding.
// A negative maxBound is clamped to 0 (a width-1 ladder that can still
// enforce AtMost(0)); an unknown encoding is ErrBadEncoding.
func AddLadder(s *sat.Solver, lits []sat.Lit, maxBound int, enc CardEncoding) (*Ladder, error) {
	if maxBound < 0 {
		maxBound = 0
	}
	width := maxBound + 1
	if width > len(lits) {
		width = len(lits)
	}
	switch enc {
	case SeqCounter:
		return addSeqCounter(s, lits, width), nil
	case Totalizer:
		return addTotalizer(s, lits, width), nil
	case Pairwise:
		return addPairwiseLadder(s, lits, width), nil
	default:
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, enc)
	}
}

// addSeqCounter builds Sinz's sequential counter of the given width.
// reg[i][j] = "at least j+1 of lits[0..i] are true" (one-way).
func addSeqCounter(s *sat.Solver, lits []sat.Lit, width int) *Ladder {
	n := len(lits)
	if n == 0 || width == 0 {
		return &Ladder{n: n}
	}
	prev := make([]sat.Lit, 0, width)
	for i := 0; i < n; i++ {
		rows := i + 1
		if rows > width {
			rows = width
		}
		cur := make([]sat.Lit, rows)
		for j := range cur {
			cur[j] = sat.PosLit(s.NewVar())
		}
		// lits[i] -> cur[0]
		s.AddClause(lits[i].Neg(), cur[0])
		for j := 0; j < len(prev); j++ {
			// prev[j] -> cur[j] (count carries over)
			s.AddClause(prev[j].Neg(), cur[j])
			// prev[j] & lits[i] -> cur[j+1]
			if j+1 < rows {
				s.AddClause(prev[j].Neg(), lits[i].Neg(), cur[j+1])
			}
		}
		prev = cur
	}
	return &Ladder{atLeast: prev, n: n}
}

// addTotalizer builds a (one-way) totalizer tree truncated to width.
func addTotalizer(s *sat.Solver, lits []sat.Lit, width int) *Ladder {
	n := len(lits)
	if n == 0 || width == 0 {
		return &Ladder{n: n}
	}
	var build func(ls []sat.Lit) []sat.Lit
	build = func(ls []sat.Lit) []sat.Lit {
		if len(ls) == 1 {
			return []sat.Lit{ls[0]}
		}
		mid := len(ls) / 2
		left := build(ls[:mid])
		right := build(ls[mid:])
		outN := len(left) + len(right)
		if outN > width {
			outN = width
		}
		out := make([]sat.Lit, outN)
		for i := range out {
			out[i] = sat.PosLit(s.NewVar())
		}
		// sum: left_i & right_j -> out_{i+j+1}; left_i -> out_i; right_j -> out_j.
		for i := 0; i <= len(left); i++ {
			for j := 0; j <= len(right); j++ {
				k := i + j
				if k == 0 || k > len(out) {
					continue
				}
				clause := make([]sat.Lit, 0, 3)
				if i > 0 {
					clause = append(clause, left[i-1].Neg())
				}
				if j > 0 {
					clause = append(clause, right[j-1].Neg())
				}
				clause = append(clause, out[k-1])
				s.AddClause(clause...)
			}
		}
		return out
	}
	return &Ladder{atLeast: build(lits), n: n}
}

// addPairwiseLadder layers the classic pairwise clauses on top of the
// sequential counter: every pair of true inputs directly implies the
// "at least 2" counter output, so an AtMost(1) assumption propagates
// pairwise (any decided true literal immediately falsifies all others).
// Quadratic in len(lits); intended for k = 1 diagnosis on small cones.
func addPairwiseLadder(s *sat.Solver, lits []sat.Lit, width int) *Ladder {
	l := addSeqCounter(s, lits, width)
	if len(l.atLeast) >= 2 {
		ge2 := l.atLeast[1]
		for i := 0; i < len(lits); i++ {
			for j := i + 1; j < len(lits); j++ {
				s.AddClause(lits[i].Neg(), lits[j].Neg(), ge2)
			}
		}
	}
	return l
}

// AtMostDirect adds a hard (non-assumable) pairwise at-most-one
// constraint; a convenience for small side conditions.
func AtMostDirect(s *sat.Solver, lits []sat.Lit) {
	for i := 0; i < len(lits); i++ {
		for j := i + 1; j < len(lits); j++ {
			s.AddClause(lits[i].Neg(), lits[j].Neg())
		}
	}
}
