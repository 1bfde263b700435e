package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// median of xs (0 for an empty slice); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLevels are the percentiles tried, highest first, for a timing's
// reported tail.
var tailLevels = []float64{99.9, 99.5, 99, 98, 97.5, 95, 90, 75}

// tail returns the highest percentile of tailLevels that has at least
// ten samples beyond it (nearest rank), with its value. ok is false when
// the sample is too small for any level.
func tail(xs []float64) (level, value float64, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for _, p := range tailLevels {
		i := int(math.Ceil(p/100*float64(n))) - 1
		if i < 0 {
			i = 0
		}
		if n-1-i >= 10 {
			return p, s[i], true
		}
	}
	return 0, 0, false
}

// timing summarizes one timing metric the way every output reports it:
// median, the highest percentile with ten samples beyond it, and the
// sample count.
type timing struct {
	Median float64 `json:"median"`
	Tail   float64 `json:"tail,omitempty"`
	TailP  float64 `json:"tailPercentile,omitempty"`
	N      int     `json:"n"`
}

func summarize(xs []float64) timing {
	t := timing{Median: median(xs), N: len(xs)}
	if p, v, ok := tail(xs); ok {
		t.TailP, t.Tail = p, v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the CPU time the process has used, user and system, over
// all its threads: a library call's own goroutine and the collector
// work it causes. Unlike wall time it leaves out the time a shared
// host's hypervisor gives the process's virtual CPUs to other guests.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// envRecord is the environment line every run prints before its result.
type envRecord struct {
	CPU          string `json:"cpu"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"goVersion"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"sourceDigest"`
}

// environment records where a run happened. Commit is the git HEAD when
// the source tree is a git checkout and "unknown" otherwise;
// SourceDigest hashes the Go sources and module files under root, so
// runs of identical code are recognisable without git.
func environment(root string) envRecord {
	return envRecord{
		CPU:          cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(root),
		SourceDigest: sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	// Look for a repository at root only, never in the directories above.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			rel, _ := filepath.Rel(root, path)
			data, err := os.ReadFile(path)
			if err == nil {
				h.Write([]byte(rel))
				h.Write(data)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
