package service_test

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestServerEnumModeEquivalence: projected-mode requests must answer
// byte-identically to legacy ones across all three serving paths, echo
// the mode, and actually engage the projected machinery (non-zero
// early-termination counter on the wire stats).
func TestServerEnumModeEquivalence(t *testing.T) {
	_, ts := newTestServer(t, 2)
	for seed := int64(1); seed <= 3; seed++ {
		c, tests := scenario(t, seed*10, 6)
		bench := benchText(t, c)
		wire := testJSON(tests)
		want := mustJSON(t, truth(t, bench, tests, 2, 1))

		// Cold path.
		cold := diagnose(t, ts.URL, service.DiagnoseRequest{
			Bench: bench, Tests: wire, K: 2, Mode: "cold", Enum: "projected",
		})
		if got := mustJSON(t, cold.Solutions); got != want {
			t.Fatalf("seed %d cold projected: %s != %s", seed, got, want)
		}
		if cold.Enum != "projected" {
			t.Fatalf("seed %d cold: enum echo %q", seed, cold.Enum)
		}
		if len(cold.Solutions) > 0 && cold.Stats.EarlyTerms == 0 {
			t.Fatalf("seed %d cold: projected mode never engaged (stats %+v)", seed, cold.Stats)
		}

		// Warm path (miss then hit), legacy and projected interleaved on
		// the same pooled session — the mode must not leak between runs.
		warmLegacy := diagnose(t, ts.URL, service.DiagnoseRequest{
			Bench: bench, Tests: wire, K: 2,
		})
		if got := mustJSON(t, warmLegacy.Solutions); got != want {
			t.Fatalf("seed %d warm legacy: %s != %s", seed, got, want)
		}
		if warmLegacy.Enum != "legacy" || warmLegacy.Stats.EarlyTerms != 0 {
			t.Fatalf("seed %d warm legacy: enum=%q earlyTerms=%d", seed, warmLegacy.Enum, warmLegacy.Stats.EarlyTerms)
		}
		warmProj := diagnose(t, ts.URL, service.DiagnoseRequest{
			Bench: bench, Tests: wire, K: 2, Enum: "projected",
		})
		if got := mustJSON(t, warmProj.Solutions); got != want {
			t.Fatalf("seed %d warm projected: %s != %s", seed, got, want)
		}
		if warmProj.Enum != "projected" || !warmProj.PoolHit {
			t.Fatalf("seed %d warm projected: enum=%q hit=%v", seed, warmProj.Enum, warmProj.PoolHit)
		}
		if len(warmProj.Solutions) > 0 && warmProj.Stats.EarlyTerms == 0 {
			t.Fatalf("seed %d warm projected: mode never engaged (stats %+v)", seed, warmProj.Stats)
		}

		// Sharded projected on the warm session.
		sharded := diagnose(t, ts.URL, service.DiagnoseRequest{
			Bench: bench, Tests: wire, K: 2, Shards: 2, Enum: "projected",
		})
		if got := mustJSON(t, sharded.Solutions); got != want {
			t.Fatalf("seed %d sharded projected: %s != %s", seed, got, want)
		}

		// Incremental inherits the previous run's mode ("" in the edit).
		sid := warmProj.Session
		code, inc := post[service.DiagnoseResponse](t, ts.URL+"/sessions/"+sid+"/tests",
			service.SessionTestsRequest{Remove: []int{0}})
		if code != http.StatusOK {
			t.Fatalf("seed %d incremental -> %d", seed, code)
		}
		wantSub := mustJSON(t, truth(t, bench, tests[1:], 2, 1))
		if got := mustJSON(t, inc.Solutions); got != wantSub {
			t.Fatalf("seed %d incremental projected: %s != %s", seed, got, wantSub)
		}
		if inc.Enum != "projected" {
			t.Fatalf("seed %d incremental: inherited enum %q, want projected", seed, inc.Enum)
		}
		// And an explicit legacy override on the next edit.
		code, inc2 := post[service.DiagnoseResponse](t, ts.URL+"/sessions/"+sid+"/tests",
			service.SessionTestsRequest{Add: wire[:1], Enum: "legacy"})
		if code != http.StatusOK {
			t.Fatalf("seed %d incremental add -> %d", seed, code)
		}
		if got := mustJSON(t, inc2.Solutions); got != want {
			t.Fatalf("seed %d incremental legacy: %s != %s", seed, got, want)
		}
		if inc2.Enum != "legacy" {
			t.Fatalf("seed %d incremental: override enum %q, want legacy", seed, inc2.Enum)
		}
	}

	// The per-session counters surfaced on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, name := range []string{"diag_session_early_terms", "diag_session_continue_backjumps", "diag_session_skipped_decisions"} {
		if !strings.Contains(body, name) {
			t.Fatalf("metrics missing %s:\n%s", name, body)
		}
	}
}

// TestServerEnumModeValidation: unknown enumeration modes are rejected
// up front with 400 on both endpoints.
func TestServerEnumModeValidation(t *testing.T) {
	_, ts := newTestServer(t, 1)
	c, tests := scenario(t, 10, 4)
	bench := benchText(t, c)
	wire := testJSON(tests)

	code, _ := post[service.DiagnoseResponse](t, ts.URL+"/diagnose", service.DiagnoseRequest{
		Bench: bench, Tests: wire, K: 1, Enum: "nope",
	})
	if code != http.StatusBadRequest {
		t.Fatalf("/diagnose unknown enum -> %d, want 400", code)
	}

	first := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: wire, K: 1})
	code, _ = post[service.DiagnoseResponse](t, ts.URL+"/sessions/"+first.Session+"/tests",
		service.SessionTestsRequest{Remove: []int{0}, Enum: "nope"})
	if code != http.StatusBadRequest {
		t.Fatalf("/sessions unknown enum -> %d, want 400", code)
	}
}
