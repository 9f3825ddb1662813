package model

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ann"
	"repro/internal/knn"
	"repro/internal/linear"
	"repro/internal/ml"
	"repro/internal/nb"
	"repro/internal/relational"
	"repro/internal/rng"
	"repro/internal/svm"
	"repro/internal/tree"
)

// trainData builds a small dense dataset with a mix of domain sizes and one
// FK-flagged feature, plus a disjoint held-out batch for prediction
// comparison.
func trainData(t *testing.T, seed uint64) (train *ml.Dataset, heldout [][]relational.Value) {
	t.Helper()
	return trainDataRaw(seed)
}

func trainDataRaw(seed uint64) (*ml.Dataset, [][]relational.Value) {
	features := []ml.Feature{
		{Name: "home", Cardinality: 3},
		{Name: "fk", Cardinality: 6, IsFK: true},
		{Name: "color", Cardinality: 5},
	}
	r := rng.New(seed)
	const n, h = 160, 48
	d := len(features)
	ds := &ml.Dataset{
		Features: features,
		X:        make([]relational.Value, n*d),
		Y:        make([]int8, n),
	}
	row := func(dst []relational.Value) {
		for j, f := range features {
			dst[j] = relational.Value(r.Intn(f.Cardinality))
		}
	}
	for i := 0; i < n; i++ {
		x := ds.X[i*d : (i+1)*d]
		row(x)
		score := float64(x[0]) - 1 + float64(x[1]%2)*2 - 1 + 0.5*r.NormFloat64()
		if score > 0 {
			ds.Y[i] = 1
		}
	}
	heldout := make([][]relational.Value, h)
	for i := range heldout {
		heldout[i] = make([]relational.Value, d)
		row(heldout[i])
	}
	return ds, heldout
}

// fitted returns one fitted instance of every serializable binary learner.
func fitted(t *testing.T, train *ml.Dataset) map[string]ml.Classifier {
	t.Helper()
	out := map[string]ml.Classifier{}

	nbc := nb.New(nb.Config{})
	if err := nbc.Fit(train); err != nil {
		t.Fatal(err)
	}
	nbc.SetActive(2, false) // exercise the backward-selection mask
	out[KindNaiveBayes] = nbc

	tr := tree.New(tree.Config{Criterion: tree.Gini, MinSplit: 4, CP: 1e-3})
	if err := tr.Fit(train); err != nil {
		t.Fatal(err)
	}
	out[KindTree] = tr

	lr := linear.NewLogReg(linear.LogRegConfig{Lambda: 1e-3, Epochs: 5, Seed: 7})
	if err := lr.Fit(train); err != nil {
		t.Fatal(err)
	}
	out[KindLogReg] = lr

	for _, kind := range []svm.KernelKind{svm.Linear, svm.RBF} {
		s, err := svm.New(svm.Config{Kernel: kind, C: 1, Gamma: 0.1, Seed: 3, MaxIter: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Fit(train); err != nil {
			t.Fatal(err)
		}
		out[KindSVM+"/"+kind.String()] = s
	}

	k := knn.New()
	if err := k.Fit(train); err != nil {
		t.Fatal(err)
	}
	out[KindOneNN] = k

	mlp := ann.New(ann.Config{Hidden1: 8, Hidden2: 4, Epochs: 2, Seed: 5})
	if err := mlp.Fit(train); err != nil {
		t.Fatal(err)
	}
	out[KindMLP] = mlp

	out[KindConstant] = &ml.ConstantClassifier{Class: 1}
	return out
}

func roundTrip(t *testing.T, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatalf("encode %s: %v", m.Kind, err)
	}
	first := append([]byte(nil), buf.Bytes()...)
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode %s: %v", m.Kind, err)
	}
	if got.Kind != m.Kind {
		t.Fatalf("kind %q round-tripped to %q", m.Kind, got.Kind)
	}
	if got.Fingerprint() != m.Fingerprint() {
		t.Fatalf("%s: fingerprint changed across round trip", m.Kind)
	}
	// Determinism: re-encoding the decoded model must reproduce the bytes.
	var again bytes.Buffer
	if err := Encode(&again, got); err != nil {
		t.Fatalf("re-encode %s: %v", m.Kind, err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Fatalf("%s: encoding is not deterministic across a round trip", m.Kind)
	}
	return got
}

// TestRoundTripEveryLearner pins the core persistence contract: encode →
// decode yields a model with bit-identical predictions (and decision scores,
// where exposed) on a held-out batch, for every learner package.
func TestRoundTripEveryLearner(t *testing.T) {
	train, heldout := trainData(t, 1)
	for name, cls := range fitted(t, train) {
		t.Run(name, func(t *testing.T) {
			m, err := New(cls, train.Features, map[string]string{"origin": "test"})
			if err != nil {
				t.Fatal(err)
			}
			got := roundTrip(t, m)
			decoded, ok := got.Classifier()
			if !ok {
				t.Fatalf("decoded %s is not a classifier", name)
			}
			for i, row := range heldout {
				if want, have := cls.Predict(row), decoded.Predict(row); want != have {
					t.Fatalf("row %d: prediction %d became %d after round trip", i, want, have)
				}
			}
			if sc, ok := cls.(ml.Scorer); ok {
				dsc := decoded.(ml.Scorer)
				for i, row := range heldout {
					if want, have := sc.Decision(row), dsc.Decision(row); want != have {
						t.Fatalf("row %d: decision %v became %v after round trip", i, want, have)
					}
				}
			}
			if got.Meta["origin"] != "test" {
				t.Fatalf("metadata lost in round trip: %v", got.Meta)
			}
		})
	}
}

// TestUnknownKindRejected pins both unknown-kind branches of the codec. A
// one-vs-rest artifact (kind "multiclass.OneVsRest", written by releases that
// still shipped that ensemble) must decode to the "unknown kind" error, not
// to a half-read model, and encoding a Model whose kind has no registered
// codec must fail the same way before any byte is written.
func TestUnknownKindRejected(t *testing.T) {
	const ovr = "multiclass.OneVsRest"
	features := []ml.Feature{{Name: "a", Cardinality: 4}}
	m, err := New(&ml.ConstantClassifier{Class: 1}, features, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	frame := func(s string) []byte {
		var b bytes.Buffer
		w := &writer{w: bufio.NewWriter(&b)}
		w.str(s)
		if err := w.w.Flush(); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if bytes.Count(buf.Bytes(), frame(KindConstant)) != 1 {
		t.Fatalf("kind frame %q not found exactly once", KindConstant)
	}
	art := bytes.Replace(buf.Bytes(), frame(KindConstant), frame(ovr), 1)
	want := `model: unknown kind "` + ovr + `"`
	if _, err := Decode(bytes.NewReader(art)); err == nil || err.Error() != want {
		t.Fatalf("decoding a one-vs-rest container: err = %v, want %q", err, want)
	}

	var out bytes.Buffer
	unregistered := &Model{Kind: ovr, Features: features, Impl: m.Impl}
	if err := Encode(&out, unregistered); err == nil || err.Error() != want {
		t.Fatalf("encoding an unregistered kind: err = %v, want %q", err, want)
	}
	if out.Len() != 0 {
		t.Fatalf("encoding an unregistered kind wrote %d bytes", out.Len())
	}
}

// TestSchemaMismatchTyped pins the typed rejection: any drift in the feature
// schema — renamed column, resized domain, flipped FK flag, dropped feature —
// surfaces as a *SchemaMismatchError.
func TestSchemaMismatchTyped(t *testing.T) {
	train, _ := trainData(t, 2)
	cls := &ml.ConstantClassifier{Class: 0}
	m, err := New(cls, train.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckFeatures(train.Features); err != nil {
		t.Fatalf("identical schema rejected: %v", err)
	}
	mutate := map[string]func([]ml.Feature){
		"renamed":     func(f []ml.Feature) { f[0].Name = "away" },
		"resized":     func(f []ml.Feature) { f[1].Cardinality++ },
		"fk-flipped":  func(f []ml.Feature) { f[2].IsFK = true },
		"extra-col":   nil, // handled below
		"dropped-col": nil,
	}
	for name, fn := range mutate {
		feats := append([]ml.Feature(nil), train.Features...)
		switch name {
		case "extra-col":
			feats = append(feats, ml.Feature{Name: "new", Cardinality: 2})
		case "dropped-col":
			feats = feats[:len(feats)-1]
		default:
			fn(feats)
		}
		err := m.CheckFeatures(feats)
		var sme *SchemaMismatchError
		if !errors.As(err, &sme) {
			t.Fatalf("%s: got %v, want *SchemaMismatchError", name, err)
		}
		if sme.Want == sme.Got {
			t.Fatalf("%s: mismatch error carries equal fingerprints", name)
		}
	}
}

// TestDecodeRejectsCorruptSchema flips a byte inside the schema block and
// requires the fingerprint integrity check to refuse the artifact.
func TestDecodeRejectsCorruptSchema(t *testing.T) {
	train, _ := trainData(t, 3)
	m, err := New(&ml.ConstantClassifier{Class: 1}, train.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The first feature name "home" appears right after magic + empty meta.
	at := bytes.Index(raw, []byte("home"))
	if at < 0 {
		t.Fatal("schema block not found")
	}
	raw[at] ^= 0x20
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted schema block decoded without error")
	}
}

// TestDecodeRejectsBadMagic requires a clear error on non-artifact input.
func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a model artifact"))); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

// TestSaveLoad exercises the file boundary.
func TestSaveLoad(t *testing.T) {
	train, heldout := trainData(t, 4)
	cls := nb.New(nb.Config{})
	if err := cls.Fit(train); err != nil {
		t.Fatal(err)
	}
	m, err := New(cls, train.Features, map[string]string{"dataset": "unit"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "nb.model")
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _ := got.Classifier()
	for i, row := range heldout {
		if cls.Predict(row) != decoded.Predict(row) {
			t.Fatalf("row %d: prediction changed across save/load", i)
		}
	}
	if got.Meta["dataset"] != "unit" {
		t.Fatalf("metadata lost: %v", got.Meta)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}
