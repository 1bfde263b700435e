package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/sat"
)

// The library leg calls the engines through their public functions and
// times each call from outside, through core.Diagnose for every engine.
// In a traced pass every call is a pair, back to back: untraced and
// traced, with the bsat call replaced by its public-call decomposition
// (see decomposeBSAT). The untraced half is the baseline of the traced
// layer times, taken under the same host conditions. Which half goes
// first alternates from pair to pair, since the second call of a pair
// finds the heap the first one grew.

var engines = []string{"bsim", "cov", "bsat", "cegar"}

// firstQuery is the extra job of a complete-enumeration cell: a bsat
// first-correction query (MaxSolutions 1), the Table 2 "One" column
// measured on its own.
const firstQuery = "bsat1"

// libCell is a library cell with its pinned answers and the per-cell
// state the checks carry from pass to pass.
type libCell struct {
	*cell
	pinned map[string]string // engine -> solution-set hash

	// The bsim candidate sets of the cell, against which capped cov
	// covers are checked.
	bsimSets [][]int
	val      *core.Validator
}

func (lc *libCell) capped() bool { return lc.spec.MaxSolutions > 0 }

// libPass is one pass over every cell and engine. Every job (one engine
// on one cell) runs several times and contributes its median call.
type libPass struct {
	// The median untraced call of each job: its wall time, and the
	// process CPU time it took (see cpuTime).
	walls, cpus map[job]time.Duration
	// total is the time of every untraced call of the pass, repetitions
	// included: the baseline that traced layer times are compared with.
	// tracedTotal is the same for the traced calls.
	total, tracedTotal time.Duration

	// Traced passes only: the median call of each layer summed over
	// cells, the deterministic counts, and per job the median traced
	// call's layer sum over the median untraced call.
	perCall     map[string]time.Duration
	counts      map[string]float64
	layerRatios []float64
}

type libLeg struct {
	cells             []*libCell
	reps              map[string]int // calls per job, by engine (default 1)
	tracedFirst       map[job]bool   // traced passes: the order of each job's next pair
	rng               *rand.Rand
	passes            []*libPass
	attempted, failed int
	wrong             []string
}

type job struct {
	lc     *libCell
	engine string
}

// run executes passes until the deadline (at least minPasses). A pass
// starts only while half a pass still fits, so the leg ends near its
// deadline on average.
func (l *libLeg) run(deadline time.Time, traced bool, minPasses int) {
	for i := 0; i < minPasses || time.Now().Add(l.lastTotal()/2).Before(deadline); i++ {
		l.pass(traced)
	}
}

func (l *libLeg) lastTotal() time.Duration {
	if len(l.passes) == 0 {
		return 0
	}
	p := l.passes[len(l.passes)-1]
	return p.total + p.tracedTotal
}

func (l *libLeg) pass(traced bool) {
	jobs := make([]job, 0, len(l.cells)*len(engines))
	for _, lc := range l.cells {
		for _, e := range engines {
			jobs = append(jobs, job{lc, e})
		}
		if !lc.capped() {
			jobs = append(jobs, job{lc, firstQuery})
		}
	}
	if traced && l.tracedFirst == nil {
		l.tracedFirst = make(map[job]bool)
		for i, j := range jobs {
			l.tracedFirst[j] = i%2 == 1
		}
	}
	p := &libPass{walls: make(map[job]time.Duration), cpus: make(map[job]time.Duration)}
	if traced {
		p.perCall = make(map[string]time.Duration)
		p.counts = make(map[string]float64)
	}
	runs := make([]*jobRun, len(jobs))
	var batches []batch
	for i, j := range jobs {
		runs[i] = &jobRun{job: j, spans: make(map[string][]float64)}
		reps := max(l.reps[j.engine], 1)
		n := min(reps, batchesPerJob)
		for b := 0; b < n; b++ {
			size := reps / n
			if b < reps%n {
				size++
			}
			batches = append(batches, batch{runs[i], size})
		}
	}
	l.rng.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
	for _, b := range batches {
		if b.run.err != nil {
			continue
		}
		// Every batch starts from a collected heap, so no call pays for
		// the garbage of a job the seeded order put before it.
		runtime.GC()
		l.runBatch(p, b, traced)
	}
	l.passes = append(l.passes, p)

	for _, r := range runs {
		l.attempted++
		if r.err != nil {
			l.failed++
			l.wrong = append(l.wrong, fmt.Sprintf("%s %s: %v", r.lc.spec.name(), r.engine, r.err))
			continue
		}
		p.walls[r.job] = time.Duration(median(r.walls) * 1e6)
		p.cpus[r.job] = time.Duration(median(r.cpus) * 1e6)
		if traced {
			for name, ts := range r.spans {
				p.perCall[name] += time.Duration(median(ts) * 1e6)
			}
			countReport(p.counts, r.engine, r.traced)
			p.layerRatios = append(p.layerRatios, median(r.sums)/median(r.walls))
		}
		err := l.check(r.lc, r.engine, r.rep)
		if err == nil && r.traced != nil {
			if err = l.check(r.lc, r.engine, r.traced); err == nil && r.engine == "bsat" {
				err = sameAnswer(r.rep, r.traced)
			}
		}
		if err != nil {
			l.wrong = append(l.wrong, fmt.Sprintf("%s %s: %v", r.lc.spec.name(), r.engine, err))
		}
	}
}

// batchesPerJob is how many batches a pass splits a job's calls into.
// Host speed drifts within a second on a shared machine: on the
// s1423x cell, the median of 256 back-to-back bsim calls ranged
// 0.06–0.11 ms from one batch to the next. Spread over the pass, a
// job's calls see many such phases.
const batchesPerJob = 4

// jobRun collects one job's calls in a pass: untraced walls and CPU
// times, traced layer sums and per-layer self times, and the last
// answers, which are the ones checked.
type jobRun struct {
	job
	walls, cpus, sums []float64
	spans             map[string][]float64
	rep, traced       *core.Report
	err               error
}

type batch struct {
	run  *jobRun
	size int
}

// runBatch calls the batch's job size times. In a traced pass every
// call is a pair, an untraced and a traced call in alternating order.
func (l *libLeg) runBatch(p *libPass, b batch, traced bool) {
	r := b.run
	for i := 0; i < b.size; i++ {
		order := []bool{false}
		if traced {
			order = []bool{l.tracedFirst[r.job], !l.tracedFirst[r.job]}
			l.tracedFirst[r.job] = !l.tracedFirst[r.job]
		}
		for _, tr := range order {
			var layers map[string]time.Duration
			if tr {
				layers = make(map[string]time.Duration)
			}
			c0 := cpuTime()
			t0 := time.Now()
			got, err := once(r.job, layers)
			d := time.Since(t0)
			cpu := cpuTime() - c0
			if err != nil {
				r.err = err
				return
			}
			if !tr {
				r.rep = got
				p.total += d
				r.walls = append(r.walls, ms(d))
				r.cpus = append(r.cpus, ms(cpu))
				continue
			}
			r.traced = got
			p.tracedTotal += d
			var sum time.Duration
			for name, t := range layers {
				r.spans[name] = append(r.spans[name], ms(t))
				sum += t
			}
			r.sums = append(r.sums, ms(sum))
		}
	}
}

// medianPass sums, over the jobs of each end-to-end library metric, the
// job's median call over the passes: the typical pass, job by job. It
// sums CPU times, or wall times when wall is set. The keys are the
// metric names; "pass" sums every job.
func (l *libLeg) medianPass(wall bool) map[string]time.Duration {
	perJob := make(map[job][]float64)
	for _, p := range l.passes {
		calls := p.cpus
		if wall {
			calls = p.walls
		}
		for j, d := range calls {
			perJob[j] = append(perJob[j], float64(d))
		}
	}
	out := make(map[string]time.Duration)
	for j, ds := range perJob {
		med := time.Duration(median(ds))
		out["pass"] += med
		switch j.engine {
		case "bsim", "cov", "cegar":
			out[j.engine] += med
		case firstQuery:
			out["bsat_first"] += med
		case "bsat":
			out["bsat_all"] += med
			if j.lc.capped() {
				out["bsat_first"] += med
			}
		}
	}
	return out
}

// once is one call of a job. Traced (layers non-nil), it
// records the call's self time per layer, and a bsat call is replaced
// by its public-call decomposition.
func once(j job, layers map[string]time.Duration) (*core.Report, error) {
	lc := j.lc
	req := core.Request{Engine: j.engine, Circuit: lc.faulty, Tests: lc.tests, K: lc.spec.K, MaxSolutions: lc.spec.MaxSolutions}
	if j.engine == firstQuery {
		req.Engine, req.MaxSolutions = "bsat", 1
	}
	if layers != nil && j.engine == "bsat" {
		return decomposeBSAT(lc, layers)
	}
	t0 := time.Now()
	rep, err := core.Diagnose(context.Background(), req)
	d := time.Since(t0)
	if err != nil || layers == nil {
		return rep, err
	}
	switch j.engine {
	case "bsim":
		layers["core.bsim"] = d
	case "cov":
		layers["cover.bsim_stage"] = rep.Timings.CNF
		layers["cover.enum"] = d - rep.Timings.CNF
	case firstQuery:
		layers["core.first_query"] = d
	case "cegar":
		layers["core.cegar"] = d
	}
	return rep, nil
}

// countReport adds the deterministic counts of one job's answer.
func countReport(counts map[string]float64, engine string, rep *core.Report) {
	switch engine {
	case "bsim":
		for _, sol := range rep.Solutions {
			counts["core.bsim.marked"] += float64(len(sol.Gates))
		}
	case "cov":
		counts["cover.solutions"] += float64(len(rep.Solutions))
	case "bsat":
		counts["cnf.vars"] += float64(rep.Vars)
		counts["cnf.clauses"] += float64(rep.Clauses)
		counts["cnf.copies"] += float64(rep.Copies)
		counts["sat.decisions"] += float64(rep.Stats.Decisions)
		counts["sat.conflicts"] += float64(rep.Stats.Conflicts)
		counts["sat.propagations"] += float64(rep.Stats.Propagations)
		counts["sat.solutions"] += float64(len(rep.Solutions))
	case "cegar":
		counts["core.cegar.copies"] += float64(rep.Copies)
		counts["core.cegar.refinements"] += float64(rep.Refinements)
		counts["core.cegar.checked"] += float64(rep.Checked)
		counts["core.cegar.solutions"] += float64(len(rep.Solutions))
	}
}

// decomposeBSAT is the bsat engine rebuilt from its public calls —
// cnf.NewSession (select lines and cardinality ladder), AddTests (one
// constrained copy per test), EnumerateRound with a first-model stamp,
// Canonicalize — with no option beyond what core.Diagnose derives from
// the same request. Each call is one layer span of the traced pass.
func decomposeBSAT(lc *libCell, layers map[string]time.Duration) (*core.Report, error) {
	search, err := sat.ConfigByName("")
	if err != nil {
		return nil, err
	}
	enum, err := sat.EnumModeByName("")
	if err != nil {
		return nil, err
	}
	k := lc.spec.K
	t0 := time.Now()
	sess := cnf.NewSession(lc.faulty, cnf.DiagOptions{MaxK: k, Search: search, Enum: enum})
	t1 := time.Now()
	sess.AddTests(lc.tests)
	t2 := time.Now()
	vars, clauses := sess.Size()

	rep := &core.Report{Engine: "bsat", Guaranteed: true, Vars: vars, Clauses: clauses, Copies: sess.NumTests()}
	var first time.Time
	_, complete, err := sess.EnumerateRound(cnf.RoundOptions{
		MaxK:         k,
		Ctx:          context.Background(),
		MaxSolutions: lc.spec.MaxSolutions,
	}, func(_ int, gates []int) bool {
		if first.IsZero() {
			first = time.Now()
		}
		rep.Solutions = append(rep.Solutions, core.NewCorrection(gates))
		return true
	})
	t3 := time.Now()
	if err != nil {
		return nil, err
	}
	rep.Complete = complete
	rep.Stats = sess.Solver.Statistics()
	rep.Canonicalize()
	t4 := time.Now()

	if first.IsZero() {
		first = t3
	}
	layers["cnf.ladder"] = t1.Sub(t0)
	layers["cnf.copies"] = t2.Sub(t1)
	layers["sat.first"] = first.Sub(t2)
	layers["sat.enum"] = t3.Sub(first)
	layers["core.canon"] = t4.Sub(t3)
	return rep, nil
}

// solutionHash fingerprints a canonical solution set and its
// completeness.
func solutionHash(rep *core.Report) string {
	h := sha256.New()
	for _, sol := range rep.Solutions {
		h.Write([]byte(sol.Key()))
		h.Write([]byte{'\n'})
	}
	fmt.Fprintf(h, "complete=%v", rep.Complete)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// check gates one engine answer. Complete enumerations must match their
// pinned hash, and cegar must equal bsat. First-correction (capped)
// answers depend on the search trajectory, which later changes may move
// on purpose, so they are checked for what the paper guarantees
// instead: SAT corrections are valid and essential (Lemmas 1 and 3),
// covers hit every BSIM candidate set within the size bound.
func (l *libLeg) check(lc *libCell, engine string, rep *core.Report) error {
	if len(rep.Solutions) == 0 {
		return fmt.Errorf("no solutions")
	}
	capped := lc.capped() || engine == firstQuery
	if engine == "bsim" || !capped {
		if !rep.Complete {
			return fmt.Errorf("incomplete answer")
		}
		want, ok := lc.pinned[engine]
		if !ok {
			return fmt.Errorf("no pinned hash")
		}
		if got := solutionHash(rep); got != want {
			return fmt.Errorf("solution hash %s, pinned %s", got, want)
		}
	} else if engine == "cov" {
		for _, sol := range rep.Solutions {
			if err := coversAll(sol.Gates, lc.bsimSets, lc.spec.K); err != nil {
				return err
			}
		}
	} else {
		if lc.val == nil {
			lc.val = core.NewValidator(lc.faulty, lc.tests)
		}
		for _, sol := range rep.Solutions {
			if !lc.val.Essential(sol.Gates) {
				return fmt.Errorf("correction %v is not a valid essential correction", sol)
			}
		}
	}
	if engine == "cegar" && !lc.capped() && solutionHash(rep) != lc.pinned["bsat"] {
		return fmt.Errorf("cegar and bsat disagree")
	}
	return nil
}

// sameAnswer requires the traced decomposition to reproduce the
// untraced core.Diagnose answer exactly: solutions, instance size and
// every solver counter.
func sameAnswer(ref, got *core.Report) error {
	if a, b := solutionHash(ref), solutionHash(got); a != b {
		return fmt.Errorf("decomposition hash %s, core.Diagnose %s", b, a)
	}
	if ref.Vars != got.Vars || ref.Clauses != got.Clauses {
		return fmt.Errorf("decomposition size %d/%d, core.Diagnose %d/%d", got.Vars, got.Clauses, ref.Vars, ref.Clauses)
	}
	if ref.Stats != got.Stats {
		return fmt.Errorf("decomposition counters %+v, core.Diagnose %+v", got.Stats, ref.Stats)
	}
	return nil
}

func coversAll(gates []int, sets [][]int, k int) error {
	if len(gates) > k {
		return fmt.Errorf("cover %v exceeds K=%d", gates, k)
	}
	in := make(map[int]bool, len(gates))
	for _, g := range gates {
		in[g] = true
	}
	for i, set := range sets {
		hit := false
		for _, g := range set {
			if in[g] {
				hit = true
				break
			}
		}
		if !hit {
			return fmt.Errorf("cover %v misses candidate set %d", gates, i)
		}
	}
	return nil
}

// bsimSets returns the cell's BSIM candidate sets.
func bsimSets(c *cell) [][]int {
	rep := core.BSIM(c.faulty, c.tests, core.PTOptions{})
	return rep.Sets
}

// computePins derives the hashes a cell's answers are pinned to: every
// engine for a complete enumeration (bsat and cegar must agree), bsim
// alone for a first-correction cell.
func computePins(c *cell) (map[string]string, error) {
	out := make(map[string]string)
	for _, e := range engines {
		if c.spec.MaxSolutions > 0 && e != "bsim" {
			continue
		}
		rep, err := core.Diagnose(context.Background(), core.Request{Engine: e, Circuit: c.faulty, Tests: c.tests, K: c.spec.K})
		if err != nil {
			return nil, err
		}
		if !rep.Complete {
			return nil, fmt.Errorf("%s: incomplete enumeration", e)
		}
		out[e] = solutionHash(rep)
	}
	if out["cegar"] != out["bsat"] {
		return nil, fmt.Errorf("cegar and bsat disagree")
	}
	return out, nil
}
