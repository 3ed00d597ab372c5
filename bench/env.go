package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"duo/internal/parallel"
)

// environment is stamped into every result file: a number without the
// machine, the toolchain and the shapes it was measured with says nothing.
type environment struct {
	Go              string `json:"go"`
	GOOS            string `json:"goos"`
	GOARCH          string `json:"goarch"`
	NumCPU          int    `json:"numcpu"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	ParallelWorkers int    `json:"parallel_workers"`
	Commit          string `json:"commit"`
	Seed            int64  `json:"seed"`
	Shapes          sizing `json:"shapes"`
}

func stamp(seed int64, z sizing) environment {
	return environment{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), ParallelWorkers: parallel.Workers(),
		Commit: headCommit("."), Seed: seed, Shapes: z,
	}
}

// headCommit resolves HEAD of the git checkout at dir by reading .git
// directly (no process is started); "unknown" outside a checkout.
func headCommit(dir string) string {
	const unknown = "unknown"
	git := filepath.Join(dir, ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return unknown
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref // detached: HEAD holds the hash
	}
	if hash, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
		return strings.TrimSpace(string(hash))
	}
	packed, err := os.ReadFile(filepath.Join(git, "packed-refs"))
	if err != nil {
		return unknown
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, ok := strings.CutSuffix(line, " "+ref); ok {
			return hash
		}
	}
	return unknown
}
