package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// smokeCell is a small complete-enumeration cell.
var smokeCell = cellSpec{Circuit: "s298x", P: 1, M: 8, K: 1, Seed: 5}

func smokeLeg(t *testing.T, spec cellSpec, corrupt bool) *libLeg {
	t.Helper()
	c, err := prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := computePins(c)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt {
		pinned["bsat"] = strings.Repeat("0", 16)
	}
	lc := &libCell{cell: c, pinned: pinned, bsimSets: bsimSets(c)}
	return &libLeg{cells: []*libCell{lc}, reps: map[string]int{"bsim": 2, "cov": 2, "bsat": 2, "cegar": 2, firstQuery: 2}, rng: rand.New(rand.NewSource(1))}
}

func TestPinnedHashGatesTheRun(t *testing.T) {
	good := smokeLeg(t, smokeCell, false)
	good.run(time.Now(), false, 1)
	if len(good.wrong) != 0 || good.failed != 0 {
		t.Fatalf("correct pins: wrong %v, failed %d", good.wrong, good.failed)
	}
	// Every library metric gets a CPU and a wall time.
	for _, wall := range []bool{false, true} {
		mp := good.medianPass(wall)
		for _, key := range []string{"pass", "bsim", "cov", "bsat_first", "bsat_all", "cegar"} {
			if mp[key] <= 0 {
				t.Errorf("medianPass(wall=%v)[%s] = %v", wall, key, mp[key])
			}
		}
	}

	bad := smokeLeg(t, smokeCell, true)
	bad.run(time.Now(), false, 1)
	if len(bad.wrong) == 0 {
		t.Fatal("a corrupted pinned hash did not fail the run")
	}
	for _, msg := range bad.wrong {
		if !strings.Contains(msg, "bsat") && !strings.Contains(msg, "cegar") {
			t.Errorf("unexpected mismatch: %s", msg)
		}
	}
}

func TestTracedDecompositionMatchesDiagnose(t *testing.T) {
	for _, spec := range []cellSpec{smokeCell, {Circuit: "s526x", P: 1, M: 16, K: 1, Seed: 11, MaxSolutions: 1}} {
		c, err := prepare(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.Diagnose(context.Background(), core.Request{Circuit: c.faulty, Tests: c.tests, K: spec.K, MaxSolutions: spec.MaxSolutions})
		if err != nil {
			t.Fatal(err)
		}
		layers := make(map[string]time.Duration)
		got, err := decomposeBSAT(&libCell{cell: c}, layers)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAnswer(ref, got); err != nil {
			t.Errorf("%s: %v", spec.name(), err)
		}
		for _, layer := range []string{"cnf.ladder", "cnf.copies", "sat.first"} {
			if layers[layer] <= 0 {
				t.Errorf("%s: layer %s not timed", spec.name(), layer)
			}
		}
	}

	// The run-level check: a traced pass verifies every decomposition
	// against the untraced call of the same job.
	leg := smokeLeg(t, smokeCell, false)
	leg.run(time.Now(), true, 1)
	if len(leg.wrong) != 0 {
		t.Fatalf("traced pass: %v", leg.wrong)
	}
	p := leg.passes[0]
	if p.tracedTotal == 0 || p.counts["sat.solutions"] == 0 {
		t.Fatal("the pass was not traced")
	}
	// One layer-sum ratio per job: four engines and the first query.
	if len(p.layerRatios) != len(engines)+1 {
		t.Fatalf("%d layer-sum ratios, want one per job", len(p.layerRatios))
	}
}

// serveBlock runs one client's first block against a server whose
// handler fail wraps, and verifies the answers.
func serveBlock(t *testing.T, fail func(n int64, r *http.Request) bool) (records, failed int, wrong []string) {
	t.Helper()
	m, err := newMix(1)
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	srv, err := startServer(func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if fail(n.Add(1), r) {
				http.Error(w, "injected", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	c := newClient(0, srv, m, 1)
	for _, sl := range c.block() {
		c.step(sl)
	}
	failed, wrong = verify(c.records)
	return len(c.records), failed, wrong
}

func TestFailedCountsNon200(t *testing.T) {
	// Answer the third request with a 500 instead of serving it.
	n, failed, wrong := serveBlock(t, func(n int64, _ *http.Request) bool { return n == 3 })
	if failed != 1 {
		t.Fatalf("failed = %d of %d, want the one injected 500", failed, n)
	}
	if len(wrong) != 1 || !strings.Contains(wrong[0], "1 of") {
		t.Fatalf("a failed request did not fail the run: %v", wrong)
	}
}

func TestUnansweredClassFailsTheRun(t *testing.T) {
	// Fail every cold request, so the cold class has no latency sample.
	_, _, wrong := serveBlock(t, func(_ int64, r *http.Request) bool {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		return bytes.Contains(body, []byte(`"mode":"cold"`)) || bytes.Contains(body, []byte(`"engine":"cegar"`))
	})
	found := false
	for _, msg := range wrong {
		found = found || msg == "no cold request was answered"
	}
	if !found {
		t.Fatalf("a class without answers did not fail the run: %v", wrong)
	}
}
