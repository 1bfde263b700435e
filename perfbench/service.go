package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/trace"
)

// The service leg is a closed loop: each client sends its next request
// only after the previous answer arrived, against an in-process
// service.NewServer with default Options on a loopback listener.
// Requests ship .bench text, so parsing is on the request path.

const (
	numClients   = 2
	baseScenario = 32 // popular scenarios, split evenly between the clients
	scenarioK    = 1
	zipfS        = 1.2
	blockSize    = 80 // requests per block; see client.block
)

// mixCircuits are the circuits of the mix; larger ones stay out, since
// one heavy enumeration would own the tail.
var mixCircuits = []string{"s298x", "s400x", "s526x", "s838x", "s1196x", "s1423x"}

// Request classes and their counts per block of blockSize requests.
var classes = []struct {
	name  string
	count int
}{
	{"warm", 55}, // bsat on a base subset, served from the pool
	{"incr", 12}, // add or retract tests on the client's own session
	{"cold", 10}, // mode cold (bsat) or engine cegar: no pool
	{"new", 3},   // a never-seen scenario: pool miss, later evictions
}

// scenario is one 1-error problem of the mix with its 32-test pool.
// Warm and cold requests send one of four fixed base subsets; incr
// requests add the two extra tests or retract them again. Keeping the
// reachable test-sets few keeps the library cross-check cheap.
type scenario struct {
	id     int
	cell   *cell
	wire   []service.TestJSON
	bases  [][]int // pool indices
	extras []int
}

func newScenario(id int, name string, seed int64) (*scenario, error) {
	for attempt := int64(0); ; attempt++ {
		c, err := prepare(cellSpec{Circuit: name, P: 1, M: 32, K: scenarioK, Seed: seed + attempt*7919})
		n := 0
		if err == nil {
			n = len(c.tests)
		}
		if n < 12 {
			if attempt < 8 {
				continue
			}
			return nil, fmt.Errorf("scenario %d on %s: only %d distinct failing tests (%v)", id, name, n, err)
		}
		s := &scenario{id: id, cell: c, wire: wireTests(c.tests), extras: []int{n - 2, n - 1}}
		rng := rand.New(rand.NewSource(seed))
		for b := 0; b < 4; b++ {
			size := 8 + rng.Intn(9)
			if size > n-2 {
				size = n - 2
			}
			s.bases = append(s.bases, sortedInts(rng.Perm(n - 2)[:size]))
		}
		return s, nil
	}
}

// variant derives a never-seen scenario from base: the same netlist
// plus one dangling AND gate over a distinct pair of inputs. The new
// gate changes the netlist fingerprint (a pool miss) but cannot appear
// in a correction, so the problem stays the size of its base.
func variant(base *scenario, id, n int) (*scenario, error) {
	c := base.cell
	in := c.faulty.Inputs
	i, j := inputPair(n, len(in))
	bench := c.bench + fmt.Sprintf("perfbench_variant = AND(%s, %s)\n", c.faulty.Gates[in[i]].Name, c.faulty.Gates[in[j]].Name)
	vc, err := parseCell(c.spec, bench, c.faulty, c.tests)
	if err != nil {
		return nil, err
	}
	return &scenario{id: id, cell: vc, wire: wireTests(vc.tests), bases: base.bases, extras: base.extras}, nil
}

// inputPair maps n to the n-th pair i < j of m inputs (cycling).
func inputPair(n, m int) (int, int) {
	n %= m * (m - 1) / 2
	for i := 0; ; i++ {
		if row := m - 1 - i; n < row {
			return i, i + 1 + n
		} else {
			n -= row
		}
	}
}

func wireTests(ts circuit.TestSet) []service.TestJSON {
	out := make([]service.TestJSON, len(ts))
	for k, t := range ts {
		var vb strings.Builder
		for _, b := range t.Vector {
			if b {
				vb.WriteByte('1')
			} else {
				vb.WriteByte('0')
			}
		}
		out[k] = service.TestJSON{Vector: vb.String(), Output: t.Output, Want: t.Want}
	}
	return out
}

func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

// mix holds the scenarios of one run: per client its popular scenarios
// in popularity order, its reserve of never-seen ones, and the fillers
// that set-up primes so the pool is full when the window opens.
type mix struct {
	own     [numClients][]*scenario
	reserve [numClients][]*scenario
	filler  [numClients][]*scenario
}

// fillerPerClient fills the default pool to its session bound together
// with the popular scenarios, so never-seen scenarios evict from the
// first one on and the window serves one steady state throughout.
const fillerPerClient = (service.DefaultMaxSessions - baseScenario) / numClients

// newMix prepares the scenarios. They are fixed across seeds (the seed
// drives the request sequence), so every seed serves the same
// population; popularity ranks interleave the circuits. Reserve and
// filler scenarios are variants of the client's own popular ones, in
// rank order.
func newMix(reservePerClient int) (*mix, error) {
	m := &mix{}
	fps := make(map[string]bool)
	for id := 0; id < baseScenario; id++ {
		name := mixCircuits[id/numClients%len(mixCircuits)]
		owner := id % numClients
		// Two seeds can inject the same error. Such scenarios would share
		// one warm session, and a client's incremental edit would then
		// apply to a test-set it does not know, so every netlist is kept
		// distinct.
		var s *scenario
		for seed := int64(100 + id); s == nil || fps[service.Fingerprint(s.cell.faulty)]; seed += 1000 {
			var err error
			if s, err = newScenario(id, name, seed); err != nil {
				return nil, err
			}
		}
		fps[service.Fingerprint(s.cell.faulty)] = true
		m.own[owner] = append(m.own[owner], s)
	}
	id := baseScenario
	for owner := range m.own {
		for n := 0; n < reservePerClient+fillerPerClient; n++ {
			base := m.own[owner][n%len(m.own[owner])]
			s, err := variant(base, id, n)
			if err != nil {
				return nil, err
			}
			id++
			if n < reservePerClient {
				m.reserve[owner] = append(m.reserve[owner], s)
			} else {
				m.filler[owner] = append(m.filler[owner], s)
			}
		}
	}
	return m, nil
}

// server is the in-process diagnosis service on a loopback port.
type server struct {
	svc    *service.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan struct{}
}

func startServer(handler func(http.Handler) http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.NewServer(service.Options{})
	h := svc.Handler()
	if handler != nil {
		h = handler(h)
	}
	s := &server{
		svc:    svc,
		hs:     &http.Server{Handler: h},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: numClients * 2}},
		served: make(chan struct{}),
	}
	go func() {
		s.hs.Serve(ln)
		close(s.served)
	}()
	return s, nil
}

// stop shuts the listener and the scheduler down and waits for both.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.svc.Drain(ctx)
	s.client.CloseIdleConnections()
}

// sessState is a client's view of one of its warm sessions.
type sessState struct {
	id      string
	current []int // pool indices, in the server's order
	extra   int   // how many extras sit at the end of current
}

// record is one request as the client saw it.
type record struct {
	class    string
	engine   string
	scen     *scenario
	tests    []int
	wall     time.Duration
	err      error
	answer   []byte // canonical solutions
	complete bool
	degraded string
	poolHit  bool
	copies   int
	timings  *trace.SpanJSON
}

type client struct {
	id       int
	srv      *server
	mix      *mix
	rng      *rand.Rand
	sessions map[int]*sessState
	next     int            // next reserve scenario
	turn     map[string]int // per class and scenario, requests sent
	records  []*record
	elapsed  time.Duration
}

func newClient(id int, srv *server, m *mix, seed int64) *client {
	return &client{
		id: id, srv: srv, mix: m,
		rng:      rand.New(rand.NewSource(seed*1000003 + int64(id))),
		sessions: make(map[int]*sessState),
		turn:     make(map[string]int),
	}
}

// slot is one request of a block; scen is nil for new, which takes the
// next reserve scenario when it is sent.
type slot struct {
	class string
	scen  *scenario
}

// block returns the client's next blockSize requests in seeded order.
// Every block holds the same multiset: the class counts, spread over
// the popular scenarios by zipf weights (largest remainders), and each
// (class, scenario) pair steps through its variants (subsets, engines)
// by its own counter, whatever the order. Only the order varies with
// the seed, so the mix a run serves does not depend on sampling luck.
func (c *client) block() []slot {
	own := c.mix.own[c.id]
	weights := make([]float64, len(own))
	for r := range weights {
		weights[r] = 1 / math.Pow(float64(r+1), zipfS)
	}
	var out []slot
	for _, cl := range classes {
		if cl.name != "new" {
			for r, k := range apportion(cl.count, weights) {
				for ; k > 0; k-- {
					out = append(out, slot{cl.name, own[r]})
				}
			}
			continue
		}
		for k := 0; k < cl.count; k++ {
			out = append(out, slot{class: cl.name})
		}
	}
	c.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// apportion splits n over the weights by largest remainders.
func apportion(n int, weights []float64) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		exact := float64(n) * w / total
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	return counts
}

// variant counts the requests of class on s and returns the count
// before this one.
func (c *client) variant(class string, s *scenario) int {
	key := fmt.Sprint(class, s.id)
	t := c.turn[key]
	c.turn[key] = t + 1
	return t
}

// prime is the client's part of set-up. It first builds its filler
// sessions, then warms a session per popular scenario. So the pool is
// full and the fillers are its least recently used sessions: the first
// never-seen scenario of the window already evicts, as every later one
// does.
func (c *client) prime() error {
	for _, s := range c.mix.filler[c.id] {
		c.diagnose("warm", s, s.bases[0], "", "")
	}
	for _, s := range c.mix.own[c.id] {
		c.diagnose("warm", s, s.bases[0], "", "")
	}
	for _, r := range c.records {
		if r.err != nil {
			return fmt.Errorf("prime scenario %d: %v", r.scen.id, r.err)
		}
	}
	c.records = nil
	return nil
}

// loop sends whole blocks until the deadline. A block starts only while
// half a block still fits, so the loop ends near the deadline on
// average.
func (c *client) loop(deadline time.Time) {
	start := time.Now()
	var last time.Duration
	for time.Now().Add(last / 2).Before(deadline) {
		t0 := time.Now()
		for _, sl := range c.block() {
			c.step(sl)
		}
		last = time.Since(t0)
	}
	c.elapsed += time.Since(start)
}

func (c *client) step(sl slot) {
	switch sl.class {
	case "incr":
		c.incremental(sl.scen)
	case "cold":
		// Each scenario cycles through its four subsets under bsat, then
		// under cegar.
		k := c.variant("cold", sl.scen)
		tests := sl.scen.bases[k%len(sl.scen.bases)]
		if k/len(sl.scen.bases)%2 == 0 {
			c.diagnose("cold", sl.scen, tests, "bsat", "cold")
		} else {
			c.diagnose("cold", sl.scen, tests, "cegar", "")
		}
	case "new":
		res := c.mix.reserve[c.id]
		s := res[c.next%len(res)]
		c.next++
		c.diagnose("new", s, s.bases[0], "", "")
	default:
		k := c.variant("warm", sl.scen)
		c.diagnose("warm", sl.scen, sl.scen.bases[k%len(sl.scen.bases)], "", "")
	}
}

func (c *client) diagnose(class string, s *scenario, tests []int, engine, mode string) *record {
	req := service.DiagnoseRequest{Bench: s.cell.bench, Engine: engine, Mode: mode, K: scenarioK}
	for _, i := range tests {
		req.Tests = append(req.Tests, s.wire[i])
	}
	if engine == "" {
		engine = "bsat"
	}
	r := c.send(&record{class: class, engine: engine, scen: s, tests: tests}, "/diagnose", req)
	if r.err == nil && engine == "bsat" && mode == "" {
		c.sessions[s.id] = &sessState{id: r.session, current: append([]int(nil), tests...)}
	}
	return r.record
}

// incremental adds one or two extra tests to the client's session of s,
// or retracts them when present. Priming gave every popular scenario a
// session; after a failed edit the next one re-establishes it with a
// warm request.
func (c *client) incremental(s *scenario) {
	st := c.sessions[s.id]
	if st == nil {
		c.diagnose("warm", s, s.bases[0], "", "")
		return
	}
	var body service.SessionTestsRequest
	body.K = scenarioK
	next := append([]int(nil), st.current...)
	extra := 0
	if st.extra > 0 {
		for i := len(st.current) - st.extra; i < len(st.current); i++ {
			body.Remove = append(body.Remove, i)
		}
		next = next[:len(next)-st.extra]
	} else {
		extra = 1 + c.variant("incr", s)/2%len(s.extras)
		for _, i := range s.extras[:extra] {
			body.Add = append(body.Add, s.wire[i])
			next = append(next, i)
		}
	}
	r := c.send(&record{class: "incr", engine: "bsat", scen: s, tests: next}, "/sessions/"+st.id+"/tests", body)
	if r.err == nil {
		st.current, st.extra = next, extra
	} else {
		// The session state is unknown after a failed edit; the next
		// warm request on s re-establishes it.
		delete(c.sessions, s.id)
	}
}

type sent struct {
	*record
	session string
}

// send posts one request. The clock runs from the write of the
// pre-encoded body to the last byte of the answer; decoding happens
// after.
func (c *client) send(r *record, path string, body any) sent {
	payload, err := json.Marshal(body)
	if err != nil {
		r.err = err
		c.records = append(c.records, r)
		return sent{record: r}
	}
	t0 := time.Now()
	resp, err := c.srv.client.Post(c.srv.url+path, "application/json", bytes.NewReader(payload))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.wall = time.Since(t0)
	c.records = append(c.records, r)
	if err != nil {
		r.err = err
		return sent{record: r}
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		return sent{record: r}
	}
	var dr service.DiagnoseResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		r.err = err
		return sent{record: r}
	}
	r.answer = canonicalAnswer(dr.Solutions)
	r.complete, r.degraded = dr.Complete, dr.Degraded
	r.poolHit, r.copies, r.timings = dr.PoolHit, dr.NewCopies, dr.Timings
	return sent{record: r, session: dr.Session}
}

func canonicalAnswer(sols [][]int) []byte {
	if sols == nil {
		sols = [][]int{}
	}
	b, _ := json.Marshal(sols)
	return b
}

// svcLeg runs the clients and holds what they saw.
type svcLeg struct {
	srv       *server
	mix       *mix
	clients   []*client
	evictions float64
}

func (l *svcLeg) run(deadline time.Time) {
	before := scrape(l.srv, "diag_pool_evictions_total")
	var wg sync.WaitGroup
	for _, c := range l.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(deadline)
		}()
	}
	wg.Wait()
	l.evictions += scrape(l.srv, "diag_pool_evictions_total") - before
}

func (l *svcLeg) records() []*record {
	var out []*record
	for _, c := range l.clients {
		out = append(out, c.records...)
	}
	return out
}

// scrape reads one unlabelled series from /metrics (NaN-free: 0 when
// absent).
func scrape(s *server, name string) float64 {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// verify checks every answered request against core.Diagnose on the
// same netlist, test-set and K, byte for byte (cegar requests included:
// their reference is bsat, which is the paper's equivalence). It returns
// the failed count (non-200, degraded or incomplete) and the wrong
// answers. A failed request fails the run too, and so does a request
// class without a single answer, since its latency would read 0.
// References are computed once per distinct test-set, on numClients
// workers, after the measured window.
func verify(recs []*record) (failed int, wrong []string) {
	type ref struct {
		scen  *scenario
		tests []int
		want  []byte
		err   error
	}
	refs := make(map[string]*ref)
	var todo []*ref
	keyOf := func(r *record) string { return fmt.Sprint(r.scen.id, sortedInts(r.tests)) }
	answered := make(map[string]int)
	for _, r := range recs {
		if r.err != nil || !r.complete || r.degraded != "" {
			failed++
			continue
		}
		answered[r.class]++
		if k := keyOf(r); refs[k] == nil {
			refs[k] = &ref{scen: r.scen, tests: r.tests}
			todo = append(todo, refs[k])
		}
	}
	if failed > 0 {
		wrong = append(wrong, fmt.Sprintf("%d of %d requests failed (non-200, degraded or incomplete)", failed, len(recs)))
	}
	for _, cl := range classes {
		if answered[cl.name] == 0 {
			wrong = append(wrong, fmt.Sprintf("no %s request was answered", cl.name))
		}
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < numClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(todo)); i = next.Add(1) - 1 {
				f := todo[i]
				tests := make(circuit.TestSet, len(f.tests))
				for j, ti := range f.tests {
					tests[j] = f.scen.cell.tests[ti]
				}
				rep, err := core.Diagnose(context.Background(), core.Request{Circuit: f.scen.cell.faulty, Tests: tests, K: scenarioK})
				if err != nil {
					f.err = err
					continue
				}
				sols := make([][]int, len(rep.Solutions))
				for j, s := range rep.Solutions {
					sols[j] = s.Gates
				}
				f.want = canonicalAnswer(sols)
			}
		}()
	}
	wg.Wait()
	for _, r := range recs {
		if r.err != nil || !r.complete || r.degraded != "" {
			continue
		}
		f := refs[keyOf(r)]
		switch {
		case f.err != nil:
			wrong = append(wrong, fmt.Sprintf("reference for scenario %d: %v", r.scen.id, f.err))
		case !bytes.Equal(f.want, r.answer):
			wrong = append(wrong, fmt.Sprintf("%s %s request on scenario %d tests %v: served %s, library %s",
				r.class, r.engine, r.scen.id, r.tests, r.answer, f.want))
		}
	}
	return failed, wrong
}

// svcLayers splits one request's client wall into layers: the server's
// request-span phases (queue, pool, session-wait, rebuild, encode,
// solve; a cold request's engine span splits into its own time,
// counted as encode, and its rounds, counted as solve), the rest of the
// server span (other), and everything outside it (http: transfer, JSON,
// netlist parsing).
func svcLayers(r *record) map[string]float64 {
	out := make(map[string]float64, 8)
	wall := ms(r.wall)
	root := r.timings
	if root == nil {
		out["http"] = wall
		return out
	}
	covered := 0.0
	for _, p := range root.Phases {
		name := strings.ReplaceAll(p.Name, "-", "_")
		out[name] += p.DurationMS
		covered += p.DurationMS
	}
	for _, ch := range root.Children {
		if !strings.HasPrefix(ch.Name, "engine:") {
			continue // pool and round spans are covered by the phases
		}
		inner := 0.0
		for _, g := range ch.Children {
			inner += g.DurationMS
		}
		out["encode"] += ch.DurationMS - inner
		out["solve"] += inner
		covered += ch.DurationMS
	}
	out["other"] = root.DurationMS - covered
	out["http"] = wall - root.DurationMS
	return out
}

type netlistCost struct{ parse, analysis float64 }

// netlistCosts times, once per scenario, what the server does with a
// request's netlist before diagnosing: circuit.ParseBench of the .bench
// text, and circuit.Analysis on the parsed circuit (medians of five).
func netlistCosts() func(*scenario) netlistCost {
	memo := make(map[int]netlistCost)
	return func(s *scenario) netlistCost {
		if c, ok := memo[s.id]; ok {
			return c
		}
		var parse, analysis []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			c, err := circuit.ParseBench("request", strings.NewReader(s.cell.bench))
			parse = append(parse, ms(time.Since(t0)))
			if err != nil {
				continue
			}
			t1 := time.Now()
			c.Analysis()
			analysis = append(analysis, ms(time.Since(t1)))
		}
		memo[s.id] = netlistCost{median(parse), median(analysis)}
		return memo[s.id]
	}
}
