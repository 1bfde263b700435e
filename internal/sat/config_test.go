package sat

import "testing"

// TestConfigByName pins the name validation the wire formats rely on:
// the solver has one search, so only "" and "default" resolve.
func TestConfigByName(t *testing.T) {
	for _, name := range []string{"", "default"} {
		if _, err := ConfigByName(name); err != nil {
			t.Fatalf("ConfigByName(%q): %v", name, err)
		}
	}
	for _, name := range []string{"gen3", "Default", "no-such"} {
		if _, err := ConfigByName(name); err == nil {
			t.Fatalf("ConfigByName accepted %q", name)
		}
	}
}
