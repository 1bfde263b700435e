package main

import (
	"fmt"
	"strings"

	"repro/internal/circuit"
	"repro/internal/expt"
)

// cellSpec names one diagnosis problem: a suite circuit with P injected
// errors (injection seed Seed), the first M failing tests, and the
// correction bound K the engines enumerate under. MaxSolutions > 0 turns
// the SAT and covering engines into first-correction queries.
type cellSpec struct {
	Circuit      string
	P, M, K      int
	Seed         int64
	MaxSolutions int
}

func (s cellSpec) name() string {
	return fmt.Sprintf("%s/p%d/m%d/k%d/seed%d", s.Circuit, s.P, s.M, s.K, s.Seed)
}

// cell is a prepared problem: the faulty netlist as the engines and the
// server see it (parsed back from its .bench text) plus its tests.
type cell struct {
	spec   cellSpec
	bench  string
	faulty *circuit.Circuit
	tests  circuit.TestSet
}

// prepare injects the errors, derives the failing tests with
// expt.Prepare (random simulation, then an ATPG fallback and top-up
// under a conflict budget, resampling an equivalent mutation) and
// round-trips the faulty circuit through .bench text. It never calls
// the unbounded diagnosis.MakeTests.
func prepare(spec cellSpec) (*cell, error) {
	sc, err := expt.Prepare(expt.Config{Circuit: spec.Circuit, P: spec.P, Ms: []int{spec.M}, Seed: spec.Seed})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name(), err)
	}
	return newCell(spec, sc.Faulty, sc.Tests.Prefix(spec.M))
}

// newCell renders the faulty circuit as .bench text and parses it back,
// so library calls see the same netlist object a request would.
func newCell(spec cellSpec, faulty *circuit.Circuit, tests circuit.TestSet) (*cell, error) {
	var sb strings.Builder
	if err := circuit.WriteBench(&sb, faulty); err != nil {
		return nil, err
	}
	return parseCell(spec, sb.String(), faulty, tests)
}

// parseCell parses bench and rebinds tests, written against from, to
// the parsed circuit by gate name.
func parseCell(spec cellSpec, bench string, from *circuit.Circuit, tests circuit.TestSet) (*cell, error) {
	parsed, err := circuit.ParseBench(spec.Circuit, strings.NewReader(bench))
	if err != nil {
		return nil, err
	}
	if len(parsed.Inputs) != len(from.Inputs) {
		return nil, fmt.Errorf("%s: .bench round trip changed the inputs", spec.name())
	}
	for i, in := range from.Inputs {
		if parsed.Gates[parsed.Inputs[i]].Name != from.Gates[in].Name {
			return nil, fmt.Errorf("%s: .bench round trip reordered the inputs", spec.name())
		}
	}
	rebound := make(circuit.TestSet, len(tests))
	for i, t := range tests {
		id, ok := parsed.GateByName(from.Gates[t.Output].Name)
		if !ok {
			return nil, fmt.Errorf("%s: output %q lost in the round trip", spec.name(), from.Gates[t.Output].Name)
		}
		rebound[i] = circuit.Test{Vector: t.Vector, Output: id, Want: t.Want}
	}
	return &cell{spec: spec, bench: bench, faulty: parsed, tests: rebound}, nil
}
