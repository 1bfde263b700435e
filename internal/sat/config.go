package sat

import "fmt"

// SearchConfig is the solver's search configuration. The solver has a
// single search — MiniSat-style Luby restarts and non-chronological
// backjumping, pinned by testdata/prearena_golden.json — so the struct
// carries no settings; it remains as the value ConfigByName returns.
type SearchConfig struct{}

// ConfigByName validates a search configuration name: "" and "default"
// name the solver's one search, anything else is an error.
func ConfigByName(name string) (SearchConfig, error) {
	switch name {
	case "", "default":
		return SearchConfig{}, nil
	default:
		return SearchConfig{}, fmt.Errorf("sat: unknown search configuration %q (default)", name)
	}
}
