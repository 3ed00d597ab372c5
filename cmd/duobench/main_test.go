package main

import "testing"

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownScale(t *testing.T) {
	if err := run([]string{"-scale", "galactic", "-exp", "fig3"}); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "table99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBenchUnknownID(t *testing.T) {
	// The retired modes must fail loudly, not fall through to the experiments.
	for _, id := range []string{"sort", "retrieve", "conv", "strategies", "pq,conv"} {
		if err := run([]string{"-bench", id}); err == nil {
			t.Errorf("bench id %q accepted", id)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	err := run([]string{"-exp", "fig3", "-datasets", "UCF101Sim", "-victims", "I3D", "-markdown"})
	if err != nil {
		t.Fatal(err)
	}
}
