package main

import (
	"strings"
	"testing"
	"time"
)

// TestRunSmoke drives the full CLI body on an embedded benchmark for
// every engine × shard combination the flags expose. Building this test
// binary is the build check; running run() is the CLI smoke.
func TestRunSmoke(t *testing.T) {
	cases := []struct {
		name   string
		method string
		engine string
		shards int
	}{
		{"bsat-mono", "bsat", "mono", 1},
		{"bsat-mono-sharded", "bsat", "mono", 2},
		{"bsat-cegar", "bsat", "cegar", 1},
		{"bsat-cegar-sharded", "bsat", "cegar", 2},
		{"hybrid", "hybrid", "mono", 1},
		{"all-engines", "all", "mono", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run("s298x", "", "", 1, 1, "kind", 4, 0,
				tc.method, tc.engine, tc.shards, 200, time.Minute, false)
			if err != nil {
				t.Fatalf("run(%s/%s/shards=%d): %v", tc.method, tc.engine, tc.shards, err)
			}
		})
	}
}

// TestRunRejectsBadFlags: method and engine validation happen inside
// run, before any output.
func TestRunRejectsBadFlags(t *testing.T) {
	err := run("s298x", "", "", 1, 1, "kind", 4, 0, "bsatt", "mono", 1, 10, time.Minute, false)
	if err == nil {
		t.Fatal("unknown method accepted")
	}
	if !strings.Contains(err.Error(), "bsim, cov, bsat, hybrid, all") {
		t.Fatalf("unknown method error does not list the valid names: %v", err)
	}
	if err := run("s298x", "", "", 1, 1, "kind", 4, 0, "bsat", "warp", 1, 10, time.Minute, false); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if err := run("", "", "", 1, 1, "kind", 4, 0, "bsat", "mono", 1, 10, time.Minute, false); err == nil {
		t.Fatal("missing circuit accepted")
	}
}
