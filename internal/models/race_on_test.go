//go:build race

package models

// raceEnabled reports whether the race detector instruments this build;
// under it sync.Pool drops a random share of what is put back, so the
// pooled arenas break exact AllocsPerRun counts.
const raceEnabled = true
