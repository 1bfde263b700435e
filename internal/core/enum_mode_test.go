package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/tgen"
)

// TestEnumModeEquivalenceCore: the projected enumeration mode must leave
// the BSAT and CEGAR solution sets byte-identical to legacy runs — the
// mode rides the session default (BSATOptions.diagOptions), so one knob
// covers the monolithic, sharded and refinement-driven drivers alike.
func TestEnumModeEquivalenceCore(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		sc := makeScenario(t, seed, 1+int(seed%2), 6)
		if sc == nil {
			continue
		}
		legacy, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		if !legacy.Complete {
			continue
		}
		proj, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k, Enum: "projected"})
		if err != nil {
			t.Fatal(err)
		}
		if !SameSolutions(&legacy.SolutionSet, &proj.SolutionSet) {
			t.Fatalf("seed %d: projected %v != legacy %v", seed, proj.Solutions, legacy.Solutions)
		}
		if len(legacy.Solutions) > 0 && proj.Stats.EarlyTerms == 0 {
			t.Fatalf("seed %d: projected BSAT never early-terminated", seed)
		}
		sharded, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k, Enum: "projected", Shards: 2, ShardSample: 1})
		if err != nil {
			t.Fatal(err)
		}
		if sharded.Complete && !SameSolutions(&legacy.SolutionSet, &sharded.SolutionSet) {
			t.Fatalf("seed %d: sharded projected %v != legacy %v", seed, sharded.Solutions, legacy.Solutions)
		}
		cegar, err := CEGARDiagnose(sc.faulty, sc.tests, BSATOptions{K: sc.k, Enum: "projected"})
		if err != nil {
			t.Fatal(err)
		}
		if cegar.Complete && !SameSolutions(&legacy.SolutionSet, &cegar.SolutionSet) {
			t.Fatalf("seed %d: cegar projected %v != legacy %v", seed, cegar.Solutions, legacy.Solutions)
		}
	}

	// Chronological backtracking only fires in the projected mode, on
	// densely populated decision levels; the small scenarios above never
	// reach it. The benchmark's Table 2 cell (s1423x, 2 errors, m=16,
	// seed 7, K=2) does, and must still enumerate the legacy set.
	t.Run("chrono-bt", func(t *testing.T) {
		golden, err := gen.ByName("s1423x")
		if err != nil {
			t.Fatal(err)
		}
		faulty, _, err := faults.Inject(golden, faults.Options{Count: 2, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		tests, err := tgen.Random(golden, faulty, tgen.Options{Count: 16, Seed: 7, MaxPatterns: 1 << 14})
		if err != nil || len(tests) != 16 {
			t.Fatalf("s1423x scenario: %d tests, err %v", len(tests), err)
		}
		legacy, err := BSAT(faulty, tests, BSATOptions{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		proj, err := BSAT(faulty, tests, BSATOptions{K: 2, Enum: "projected"})
		if err != nil {
			t.Fatal(err)
		}
		if !legacy.Complete || !proj.Complete || !SameSolutions(&legacy.SolutionSet, &proj.SolutionSet) {
			t.Fatalf("s1423x: projected %d solutions (complete %v) != legacy %d (complete %v)",
				len(proj.Solutions), proj.Complete, len(legacy.Solutions), legacy.Complete)
		}
		if proj.Stats.ChronoBacktracks == 0 {
			t.Fatalf("s1423x: projected BSAT made no chronological backtrack (%d solutions)", len(proj.Solutions))
		}
		t.Logf("s1423x: %d solutions, %d chronological backtracks", len(proj.Solutions), proj.Stats.ChronoBacktracks)
	})

	if _, err := BSAT(nil, nil, BSATOptions{K: 1, Enum: "nope"}); err == nil {
		t.Fatal("unknown enum mode accepted")
	}
}
