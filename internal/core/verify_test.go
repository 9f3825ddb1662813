package core

import (
	"testing"

	"repro/internal/ml"
	"repro/internal/relational"
)

// fixedClass predicts one class and ignores Fit (unlike
// ml.ConstantClassifier, which re-learns the training majority) — the
// deterministic disagreement source for the violation-path test.
type fixedClass int8

func (c fixedClass) Fit(*ml.Dataset) error           { return nil }
func (c fixedClass) Predict([]relational.Value) int8 { return int8(c) }

// TestAccuracyGateApproxKernels runs the full accuracy-level verification
// matrix — every registered approximate kernel against its bit-exact
// reference on Flights/Yelp/Expedia under both storage engines — and
// requires every cell inside tolerance. This is the test-suite face of the
// same harness `hamlet -verify accuracy` and the CI accuracy-gate job run.
func TestAccuracyGateApproxKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset × engine matrix; skipped in -short")
	}
	// The gate's standard run: VerifyOptions' defaults (scale 256, seed 1),
	// the same matrix the CI accuracy-gate job drives through hamlet. The
	// registered tolerances are calibrated at this scale.
	cells, err := VerifyAccuracy(VerifyOptions{})
	for _, c := range cells {
		t.Logf("%-16s %-8s %-9s refAcc=%.4f approxAcc=%.4f disagree=%.4f lossΔ=%.4f",
			c.Kernel, c.Dataset, c.Engine, c.Delta.RefAcc, c.Delta.ApproxAcc,
			c.Delta.Disagreement, c.Delta.LossDelta())
		if c.Err != nil {
			t.Errorf("cell outside tolerance: %v", c.Err)
		}
	}
	if err != nil {
		t.Fatalf("VerifyAccuracy: %v", err)
	}
	want := len(ApproxKernels()) * len(VerifyDatasets()) * len(VerifyEngines())
	if len(cells) != want {
		t.Fatalf("matrix has %d cells, want %d", len(cells), want)
	}
}

// TestVerifyAccuracyReportsViolations pins the failure path with a stub
// kernel whose "approximate" side deterministically contradicts its
// reference: every cell must fail and the run must surface a summary error,
// while still returning the measured deltas for reporting.
func TestVerifyAccuracyReportsViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a dataset; skipped in -short")
	}
	k := ApproxKernel{
		Name: "stub-flip",
		Tol:  ml.Tolerance{Disagreement: 0.5},
		Ref: func(uint64) (ml.Classifier, error) {
			return fixedClass(0), nil
		},
		Approx: func(uint64) (ml.Classifier, error) {
			return fixedClass(1), nil
		},
	}
	cells, err := VerifyAccuracy(VerifyOptions{
		Scale:    1024,
		Datasets: []string{"Flights"},
		Engines:  []Engine{EngineSegmented},
		Kernels:  []ApproxKernel{k},
	})
	if err == nil {
		t.Fatal("impossible tolerance must produce a gate error")
	}
	if len(cells) != 1 {
		t.Fatalf("want 1 cell, got %d", len(cells))
	}
	if cells[0].Err == nil {
		t.Fatal("failing cell must carry its violation")
	}
}
