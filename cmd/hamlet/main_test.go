package main

import (
	"path/filepath"
	"testing"

	"repro/internal/model"
)

func TestRunRejectsBadArguments(t *testing.T) {
	cases := [][]string{
		{},                   // nothing to do
		{"-table", "9"},      // unknown table
		{"-effort", "bogus"}, // unknown effort
		{"-figure", "3"},     // only figure 1 lives here
		{"-unknown-flag"},    // flag parse error
		{"-train"},           // -train without -model/-dataset
		{"-train", "-model", "x", "-dataset", "Nowhere"},
		{"-train", "-model", "x", "-dataset", "Movies", "-spec", "NotAModel"},
		{"-eval"}, // -eval without -model
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("args %v must error", args)
		}
	}
}

// TestTrainEvalRoundTrip drives the CLI halves of the pipeline: -train
// writes an artifact, -eval loads it back (dataset/scale/seed from the
// artifact metadata) and scores it.
func TestTrainEvalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.bin")
	if err := run([]string{
		"-train", "-dataset", "Walmart", "-spec", "LogisticRegression(L1)",
		"-model", path, "-scale", "4096", "-seed", "3",
	}); err != nil {
		t.Fatal(err)
	}
	m, err := model.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != model.KindLogReg || m.Meta["dataset"] != "Walmart" || m.Meta["scale"] != "4096" {
		t.Fatalf("artifact %s meta %v", m.Kind, m.Meta)
	}
	if err := run([]string{"-eval", "-model", path}); err != nil {
		t.Fatal(err)
	}
}
