package model

import (
	"bytes"
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

// FuzzCodecRoundTrip drives the codec with fuzzer-chosen learner kinds and
// hyper-parameters: train a small model, encode, decode, and require
// bit-identical predictions on a held-out batch plus byte-identical
// re-encoding. The seed corpus covers every learner kind, so a plain
// `go test` run already exercises each codec path through this harness.
func FuzzCodecRoundTrip(f *testing.F) {
	for kind := byte(0); kind < 7; kind++ {
		f.Add(kind, byte(1), byte(2), uint64(3))
		f.Add(kind, byte(9), byte(0), uint64(41))
	}
	f.Fuzz(func(t *testing.T, kindB, hp1, hp2 byte, seed uint64) {
		features := []ml.Feature{
			{Name: "x0", Cardinality: 2 + int(hp1%4)},
			{Name: "fk", Cardinality: 3 + int(hp2%5), IsFK: true},
			{Name: "x2", Cardinality: 2},
		}
		r := rng.New(seed)
		const n, h = 60, 24
		d := len(features)
		xs, ys := make([]relational.Value, n*d), make([]int8, n)
		fill := func(dst []relational.Value) {
			for j, ft := range features {
				dst[j] = relational.Value(r.Intn(ft.Cardinality))
			}
		}
		for i := 0; i < n; i++ {
			row := xs[i*d : (i+1)*d]
			fill(row)
			if (int(row[0])+int(row[1]))%2 == 0 {
				ys[i] = 1
			}
		}
		train := mustRows(features, xs, ys)
		heldout := make([][]relational.Value, h)
		for i := range heldout {
			heldout[i] = make([]relational.Value, d)
			fill(heldout[i])
		}

		var cls ml.Classifier
		var err error
		switch kindB % 7 {
		case 0:
			c := nb.New(nb.Config{Alpha: 0.5 + float64(hp1%4)})
			err = c.Fit(train)
			if err == nil && hp2%2 == 0 {
				c.SetActive(int(hp1)%d, false)
			}
			cls = c
		case 1:
			c := tree.New(tree.Config{
				Criterion: tree.Criterion(hp1 % 3),
				MinSplit:  1 + int(hp2%8),
				CP:        float64(hp1%3) * 1e-3,
				MaxDepth:  int(hp2 % 6),
			})
			err = c.Fit(train)
			cls = c
		case 2:
			c := linear.NewLogReg(linear.LogRegConfig{
				Lambda: float64(hp1%3) * 1e-3,
				L2:     float64(hp2%2) * 1e-3,
				Epochs: 1 + int(hp1%3),
				Seed:   seed,
			})
			err = c.Fit(train)
			cls = c
		case 3:
			var s *svm.SVM
			s, err = svm.New(svm.Config{
				Kernel:  svm.KernelKind(hp1 % 3),
				C:       0.5 + float64(hp2%3),
				Gamma:   0.05 + 0.1*float64(hp1%3),
				Seed:    seed,
				MaxIter: 500,
			})
			if err == nil {
				err = s.Fit(train)
			}
			cls = s
		case 4:
			c := knn.New()
			err = c.Fit(train)
			cls = c
		case 5:
			c := ann.New(ann.Config{
				Hidden1: 4 + int(hp1%5),
				Hidden2: 2 + int(hp2%3),
				Epochs:  1,
				Seed:    seed,
			})
			err = c.Fit(train)
			cls = c
		default:
			cls = &ml.ConstantClassifier{Class: int8(hp1 % 2)}
		}
		if err != nil {
			t.Fatalf("fit: %v", err)
		}

		m, err := New(cls, features, map[string]string{"fuzz": "1"})
		if err != nil {
			t.Fatalf("wrap: %v", err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			t.Fatalf("encode: %v", err)
		}
		raw := append([]byte(nil), buf.Bytes()...)
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		decoded, ok := got.Classifier()
		if !ok {
			t.Fatalf("decoded %T is not a classifier", got.Impl)
		}
		for i, row := range heldout {
			if want, have := cls.Predict(row), decoded.Predict(row); want != have {
				t.Fatalf("row %d: prediction %d became %d after round trip", i, want, have)
			}
		}
		var again bytes.Buffer
		if err := Encode(&again, got); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(raw, again.Bytes()) {
			t.Fatal("re-encoded bytes differ: codec is not deterministic")
		}
	})
}

// FuzzDecodeGarbage hammers the decoder with raw bytes: it must never panic,
// only return errors (or succeed on a byte string that happens to be a valid
// artifact, in which case re-encoding must not panic either).
func FuzzDecodeGarbage(f *testing.F) {
	train, _ := trainDataRaw(7)
	c := nb.New(nb.Config{})
	if err := c.Fit(train); err != nil {
		f.Fatal(err)
	}
	m, _ := New(c, train.Features, nil)
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		_ = Encode(&out, got)
	})
}
