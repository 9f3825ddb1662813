package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/obs"
)

// Artifact metadata keys written by BuildArtifact and read back by the
// serving binary to locate the star schema a model was trained on.
const (
	MetaDataset = "dataset"
	MetaScale   = "scale"
	MetaSeed    = "seed"
	MetaSpec    = "spec"
	MetaView    = "view"
	MetaValAcc  = "val_acc"
	MetaTestAcc = "test_acc"
	// MetaTimings holds the per-phase training-span deltas of this artifact's
	// Train call ("phase=ns/calls" pairs, comma-separated, phase-sorted).
	// Written only when EmbedTimings is set, so default artifact bytes stay
	// deterministic.
	MetaTimings = "train_timings"
)

// EmbedTimings gates MetaTimings. Off by default: timing values are
// wall-clock noise, and artifact byte-determinism (the JoinView-oracle
// equality tests, -modeldiff) depends on meta not varying run to run.
// hamlet -timings flips it for the one binary whose user asked to see the
// phase breakdown.
var EmbedTimings = false

// formatTimings renders train-phase deltas (after minus before) as a stable
// "phase=ns/calls,..." string, dropping phases this Train never entered.
func formatTimings(before, after map[string]obs.PhaseTotals) string {
	phases := make([]string, 0, len(after))
	for phase := range after {
		phases = append(phases, phase)
	}
	sort.Strings(phases)
	var b strings.Builder
	for _, phase := range phases {
		d := after[phase]
		if prev, ok := before[phase]; ok {
			d.Ns -= prev.Ns
			d.Calls -= prev.Calls
		}
		if d.Calls == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d/%d", phase, d.Ns, d.Calls)
	}
	return b.String()
}

// BuildArtifact runs the train half of the train → save → serve pipeline:
// tune and fit the spec on the env's JoinAll view (train/validation splits),
// evaluate on the holdout test split, and package the fitted classifier with
// its feature schema and provenance metadata into a persistable model. The
// extra metadata map is merged in (caller keys win on conflict).
// A corrupt spilled segment read during training or evaluation surfaces as
// a returned *relational.CorruptSegmentError.
func BuildArtifact(e *Env, spec Spec, seed uint64, extra map[string]string) (m *model.Model, res Result, err error) {
	defer recoverCorrupt(&err)
	train, val, test, err := e.ViewSplits(ml.JoinAll, nil)
	if err != nil {
		return nil, Result{}, err
	}
	var phasesBefore map[string]obs.PhaseTotals
	if EmbedTimings {
		phasesBefore = obs.TrainPhases()
	}
	c, point, valAcc, err := spec.Train(train, val, seed)
	if err != nil {
		return nil, Result{}, fmt.Errorf("core: %s: %w", spec.Name, err)
	}
	res = Result{
		Model:     spec.Name,
		View:      ml.JoinAll,
		TestAcc:   ml.Accuracy(c, test),
		TrainAcc:  ml.Accuracy(c, train),
		ValAcc:    valAcc,
		BestPoint: point,
	}
	meta := map[string]string{
		MetaSpec:    spec.Name,
		MetaSeed:    strconv.FormatUint(seed, 10),
		MetaView:    ml.JoinAll.String(),
		MetaValAcc:  strconv.FormatFloat(valAcc, 'g', -1, 64),
		MetaTestAcc: strconv.FormatFloat(res.TestAcc, 'g', -1, 64),
	}
	if EmbedTimings {
		if t := formatTimings(phasesBefore, obs.TrainPhases()); t != "" {
			meta[MetaTimings] = t
		}
	}
	for k, v := range extra {
		meta[k] = v
	}
	m, err = model.New(c, train.Features, meta)
	if err != nil {
		return nil, Result{}, err
	}
	return m, res, nil
}

// EvalArtifact scores a persisted model on the env's holdout test split
// after verifying the feature schema fingerprint — the load half of the
// pipeline. It returns the holdout test accuracy.
func EvalArtifact(e *Env, m *model.Model) (acc float64, err error) {
	defer recoverCorrupt(&err)
	_, _, test, err := e.ViewSplits(ml.JoinAll, nil)
	if err != nil {
		return 0, err
	}
	if err := m.CheckFeatures(test.Features); err != nil {
		return 0, err
	}
	c, ok := m.Classifier()
	if !ok {
		return 0, fmt.Errorf("core: model kind %q is not a binary classifier", m.Kind)
	}
	return ml.Accuracy(c, test), nil
}
