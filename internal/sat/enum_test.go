package sat

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// This file pins and verifies the EnumProjected enumeration mode: its
// trajectory is recorded in testdata/enum_golden.json (regenerated
// deliberately via -update-golden, exactly like the prearena recording),
// and its enumerated solution sets are proven equal to the legacy mode's on corpora where set-equality is order-independent
// (exact blocking always; subset blocking under the cardinality-ladder
// discipline the diagnosis engines use, covered in internal/cnf).

// enumHash canonicalizes one enumeration callback stream.
func enumHashInto(h interface{ Write([]byte) (int, error) }) func([]Lit) bool {
	return func(trueLits []Lit) bool {
		for _, l := range trueLits {
			fmt.Fprintf(h, "%d,", l)
		}
		h.Write([]byte{';'})
		return true
	}
}

// enumGoldenCorpus drives EnumProjected over the enumeration scenarios
// of the main corpus plus exact-blocking and budgeted variants. All
// stats land in the records, so the early-termination, blocked-continue
// and damping counters are pinned alongside the solution hashes.
func enumGoldenCorpus() []goldenCase {
	var cases []goldenCase

	// Subset-blocking enumeration at several sizes.
	for _, cfg := range []struct {
		nv, nc, projN int
		cap           int
		seed          uint64
	}{
		{60, 150, 14, 200, 0x13579BDF2468ACE0},
		{100, 330, 20, 150, 0x5DEECE66D},
		{200, 720, 24, 120, 0x9E6D62D06F6FE41B},
	} {
		cfg := cfg
		name := fmt.Sprintf("enum/subset/nv%d", cfg.nv)
		cases = append(cases, goldenCase{name, func() goldenRecord {
			s := buildRandom(cfg.nv, cfg.nc, 3, cfg.seed)
			proj := make([]Lit, cfg.projN)
			for i := range proj {
				proj[i] = PosLit(Var(i))
			}
			h := sha256.New()
			n, complete := s.EnumerateProjected(proj, EnumOptions{
				MaxSolutions: cfg.cap,
				Mode:         EnumProjected,
			}, enumHashInto(h))
			st := StatusSat
			if complete {
				st = StatusUnsat
			}
			rec := snapshot(name, s, st)
			rec.Model = ""
			rec.Models = n
			rec.SolHash = hex.EncodeToString(h.Sum(nil)[:12])
			return rec
		}})
	}

	// Exact-blocking enumeration (distinct projected assignments).
	cases = append(cases, goldenCase{"enum/exact", func() goldenRecord {
		s := buildRandom(80, 280, 3, 0x0B4711)
		proj := make([]Lit, 8)
		for i := range proj {
			proj[i] = PosLit(Var(i))
		}
		h := sha256.New()
		n, complete := s.EnumerateProjected(proj, EnumOptions{
			ExactBlocking: true,
			MaxSolutions:  300,
			Mode:          EnumProjected,
		}, enumHashInto(h))
		st := StatusSat
		if complete {
			st = StatusUnsat
		}
		rec := snapshot("enum/exact", s, st)
		rec.Model = ""
		rec.Models = n
		rec.SolHash = hex.EncodeToString(h.Sum(nil)[:12])
		return rec
	}})

	// Guarded round, then retire, then unguarded re-enumeration — the
	// session discipline.
	cases = append(cases, goldenCase{"enum/guarded", func() goldenRecord {
		s := buildRandom(40, 100, 3, 0xFEDCBA9876543210)
		guard := PosLit(s.NewVar())
		proj := make([]Lit, 10)
		for i := range proj {
			proj[i] = PosLit(Var(i))
		}
		h := sha256.New()
		n1, _ := s.EnumerateProjected(proj, EnumOptions{
			Assumptions:  []Lit{guard},
			BlockExtra:   []Lit{guard.Neg()},
			MaxSolutions: 50,
			Mode:         EnumProjected,
		}, enumHashInto(h))
		s.AddClause(guard.Neg())
		n2, complete := s.EnumerateProjected(proj, EnumOptions{
			MaxSolutions: 50,
			Mode:         EnumProjected,
		}, enumHashInto(h))
		st := StatusSat
		if complete {
			st = StatusUnsat
		}
		rec := snapshot("enum/guarded", s, st)
		rec.Model = ""
		rec.Models = n1*1000 + n2
		rec.SolHash = hex.EncodeToString(h.Sum(nil)[:12])
		return rec
	}})

	// Conflict-budgeted enumeration: must stop at the identical point.
	cases = append(cases, goldenCase{"enum/budget", func() goldenRecord {
		s := buildRandom(120, 552, 3, 0xA24BAED4963EE407)
		s.MaxConflicts = 40
		proj := make([]Lit, 16)
		for i := range proj {
			proj[i] = PosLit(Var(i))
		}
		h := sha256.New()
		n, complete := s.EnumerateProjected(proj, EnumOptions{
			MaxSolutions: 100,
			Mode:         EnumProjected,
		}, enumHashInto(h))
		st := StatusSat
		if complete {
			st = StatusUnsat
		}
		rec := snapshot("enum/budget", s, st)
		rec.Model = ""
		rec.Models = n
		rec.SolHash = hex.EncodeToString(h.Sum(nil)[:12])
		return rec
	}})

	return cases
}

const enumGoldenPath = "testdata/enum_golden.json"

// TestDifferentialGoldenEnum pins the EnumProjected trajectory the same
// way the prearena recording pins the default search.
func TestDifferentialGoldenEnum(t *testing.T) {
	runGoldenCases(t, enumGoldenPath, enumGoldenCorpus())
}

// collectExact enumerates with exact blocking and returns the sorted
// projection strings plus the completion flag.
func collectExact(s *Solver, proj []Lit, mode EnumMode) (sols []string, complete bool) {
	_, complete = s.EnumerateProjected(proj, EnumOptions{
		ExactBlocking: true,
		Mode:          mode,
	}, func(trueLits []Lit) bool {
		var sb strings.Builder
		for _, l := range proj {
			if s.ValueLit(l) == LTrue {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		sols = append(sols, sb.String())
		return true
	})
	sort.Strings(sols)
	return sols, complete
}

// TestEnumModeEquivalenceExact: exact-blocking enumeration visits every
// distinct projected assignment exactly once, so the enumerated set is
// order-independent — both modes must produce the identical set.
func TestEnumModeEquivalenceExact(t *testing.T) {
	for _, seed := range []uint64{0x9E3779B97F4A7C15, 0x2545F4914F6CDD1D, 0xD1B54A32D192ED03, 0xBADC0FFEE} {
		legacy := buildRandom(60, 200, 3, seed)
		projected := buildRandom(60, 200, 3, seed)
		proj := make([]Lit, 9)
		for i := range proj {
			proj[i] = PosLit(Var(i))
		}
		wantSols, wantDone := collectExact(legacy, proj, EnumLegacy)
		gotSols, gotDone := collectExact(projected, proj, EnumProjected)
		if wantDone != gotDone {
			t.Fatalf("seed %x: complete legacy=%v projected=%v", seed, wantDone, gotDone)
		}
		if len(wantSols) != len(gotSols) {
			t.Fatalf("seed %x: %d solutions legacy vs %d projected", seed, len(wantSols), len(gotSols))
		}
		for i := range wantSols {
			if wantSols[i] != gotSols[i] {
				t.Fatalf("seed %x: solution %d differs: %s vs %s", seed, i, wantSols[i], gotSols[i])
			}
		}
		if projected.Stats.ContinueBackjumps == 0 && len(gotSols) > 1 {
			t.Fatalf("seed %x: projected mode never engaged blocked-continue", seed)
		}
	}
}

// TestEnumProjectedCounters: an instance with a large unconstrained
// free suffix must terminate each model early — the free variables are
// never decided, the skipped work is counted, and every model resumes
// via blocked-continue instead of a fresh solve.
func TestEnumProjectedCounters(t *testing.T) {
	s := New()
	s.NewVars(64) // vars 0..7 projected, 8..63 free and unconstrained
	s.AddClause(PosLit(0), PosLit(1), PosLit(2))
	proj := make([]Lit, 8)
	for i := range proj {
		proj[i] = PosLit(Var(i))
	}
	n, complete := s.EnumerateProjected(proj, EnumOptions{Mode: EnumProjected}, nil)
	if !complete || n == 0 {
		t.Fatalf("enumeration incomplete: n=%d complete=%v", n, complete)
	}
	if s.Stats.EarlyTerms != int64(n) {
		t.Errorf("EarlyTerms = %d, want %d (every model should early-terminate)", s.Stats.EarlyTerms, n)
	}
	if s.Stats.ContinueBackjumps != int64(n) {
		t.Errorf("ContinueBackjumps = %d, want %d (every model should continue in place)", s.Stats.ContinueBackjumps, n)
	}
	if s.Stats.SkippedDecisions < int64(n)*50 {
		t.Errorf("SkippedDecisions = %d, want >= %d (56 free vars per model)", s.Stats.SkippedDecisions, int64(n)*50)
	}
	// The solver must remain usable for ordinary solving afterwards.
	if st := s.Solve(); st != StatusUnsat {
		t.Errorf("post-enumeration Solve = %v, want UNSAT (projection space exhausted)", st)
	}
}

// TestEnumerateCtxPostModel: cancellation observed between model
// emission and blocking must stop the enumeration without growing the
// clause database past the cancellation point — in either mode.
func TestEnumerateCtxPostModel(t *testing.T) {
	for _, mode := range []EnumMode{EnumLegacy, EnumProjected} {
		s := buildRandom(40, 120, 3, 0x13579BDF2468ACE0)
		proj := make([]Lit, 8)
		for i := range proj {
			proj[i] = PosLit(Var(i))
		}
		ctx, cancel := context.WithCancel(context.Background())
		before := -1
		n, complete := s.EnumerateProjected(proj, EnumOptions{Ctx: ctx, Mode: mode}, func([]Lit) bool {
			before = s.NumClauses()
			cancel() // consumer observes shutdown mid-model but does not abort
			return true
		})
		if n != 1 || complete {
			t.Fatalf("mode %v: n=%d complete=%v, want n=1 incomplete", mode, n, complete)
		}
		if got := s.NumClauses(); got != before {
			t.Errorf("mode %v: clause DB grew after cancellation: %d -> %d", mode, before, got)
		}
	}
}

// TestExactBlockingBlockExtra: exact blocking combined with a guarded
// round must enumerate every distinct projected assignment exactly
// once, and retiring the guard must retract all of the round's blocking
// clauses — the same projections reappear in a fresh round.
func TestExactBlockingBlockExtra(t *testing.T) {
	for _, mode := range []EnumMode{EnumLegacy, EnumProjected} {
		s := New()
		s.NewVars(6)
		s.AddClause(PosLit(3), PosLit(4)) // keep the instance non-trivial
		proj := []Lit{PosLit(0), PosLit(1), PosLit(2)}
		guard := PosLit(s.NewVar())
		round := func(g Lit) map[string]int {
			seen := map[string]int{}
			n, complete := s.EnumerateProjected(proj, EnumOptions{
				Assumptions:   []Lit{g},
				BlockExtra:    []Lit{g.Neg()},
				ExactBlocking: true,
				Mode:          mode,
			}, func([]Lit) bool {
				var sb strings.Builder
				for _, l := range proj {
					if s.ValueLit(l) == LTrue {
						sb.WriteByte('1')
					} else {
						sb.WriteByte('0')
					}
				}
				seen[sb.String()]++
				return true
			})
			if !complete {
				t.Fatalf("mode %v: guarded exact round incomplete", mode)
			}
			if n != 8 {
				t.Fatalf("mode %v: enumerated %d projections, want all 8", mode, n)
			}
			return seen
		}
		first := round(guard)
		for p, c := range first {
			if c != 1 {
				t.Fatalf("mode %v: projection %s enumerated %d times", mode, p, c)
			}
		}
		s.AddClause(guard.Neg()) // retire: all 8 blocking clauses retract
		guard2 := PosLit(s.NewVar())
		second := round(guard2)
		if len(second) != 8 {
			t.Fatalf("mode %v: retired round still blocks: %d projections in round 2", mode, len(second))
		}
	}
}

// TestEnumerateEmptyProjection: a model whose projected true-set is
// empty yields an empty subset-blocking clause, which empties the
// solution space — the edge where enumeration must report complete with
// the solver left unsatisfiable. Both modes decide with the saved
// (initially negative) phase, so the very first model already has the
// empty true-set and the enumeration stops after one model.
func TestEnumerateEmptyProjection(t *testing.T) {
	for _, mode := range []EnumMode{EnumLegacy, EnumProjected} {
		s := New()
		s.NewVars(3)
		s.AddClause(PosLit(1), PosLit(2))
		n, complete := s.EnumerateProjected([]Lit{PosLit(0)}, EnumOptions{Mode: mode}, nil)
		if n != 1 || !complete {
			t.Fatalf("mode %v: n=%d complete=%v, want n=1 complete", mode, n, complete)
		}
		if s.Okay() {
			t.Errorf("mode %v: solver still ok after blocking the empty projection", mode)
		}
		if n2, c2 := s.EnumerateProjected([]Lit{PosLit(0)}, EnumOptions{Mode: mode}, nil); n2 != 0 || !c2 {
			t.Errorf("mode %v: re-enumeration after empty block: n=%d complete=%v, want 0,true", mode, n2, c2)
		}
	}
}

// TestEnumerateSteadyStateZeroAlloc: with the solver-resident blocking
// and projection buffers, a steady-state guarded enumeration round
// allocates nothing — the idiom of the propagate/analyze zero-alloc
// tests applied to the whole enumeration loop. Guards are pre-created
// and warm-up rounds grow the arena, watch slab, occurrence lists and
// buffers to capacity first.
func TestEnumerateSteadyStateZeroAlloc(t *testing.T) {
	for _, mode := range []EnumMode{EnumLegacy, EnumProjected} {
		s := buildRandom(40, 100, 3, 0xFEDCBA9876543210)
		proj := make([]Lit, 10)
		for i := range proj {
			proj[i] = PosLit(Var(i))
		}
		guards := make([]Lit, 12)
		for i := range guards {
			guards[i] = PosLit(s.NewVar())
		}
		next := 0
		assumps := make([]Lit, 1)
		blockExtra := make([]Lit, 1)
		keep := func([]Lit) bool { return true }
		round := func() {
			g := guards[next]
			next++
			assumps[0], blockExtra[0] = g, g.Neg()
			opts := EnumOptions{
				Assumptions:  assumps,
				BlockExtra:   blockExtra,
				MaxSolutions: 30,
				Mode:         mode,
			}
			s.EnumerateProjected(proj, opts, keep)
			s.AddClause(g.Neg()) // retire the round
		}
		for i := 0; i < 8; i++ { // warm every buffer to steady state
			round()
		}
		allocs := testing.AllocsPerRun(1, round)
		if allocs != 0 {
			t.Errorf("mode %v: steady-state enumeration allocated %v allocs/round, want 0", mode, allocs)
		}
	}
}
