package tree

import (
	"testing"

	"repro/internal/ml"
	"repro/internal/relational"
)

// TestFromParamsRejectsMalformedTrees pins the decode-side hardening: a
// payload that passed the container checks must still be refused when its
// node graph could crash or hang Predict.
func TestFromParamsRejectsMalformedTrees(t *testing.T) {
	leaf := NodeParams{Feature: -1, LeftChild: -1, RightChild: -1}
	base := Params{NFeatures: 2, Nodes: []NodeParams{
		{Feature: 0, LeftChild: 1, RightChild: 2,
			SplitValues: []relational.Value{0, 1}, SplitLeft: []bool{true, false}},
		leaf, leaf,
	}}
	if _, err := FromParams(2, base); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	cases := map[string]func(p *Params){
		"schema feature count mismatch": func(p *Params) { p.NFeatures = 5 },
		"feature out of range":          func(p *Params) { p.Nodes[0].Feature = 2 },
		"self cycle":                    func(p *Params) { p.Nodes[0].LeftChild = 0 },
		"backward edge":                 func(p *Params) { p.Nodes[0].RightChild = 0 },
		"child out of range":            func(p *Params) { p.Nodes[0].LeftChild = 9 },
		"split mask length mismatch":    func(p *Params) { p.Nodes[0].SplitLeft = p.Nodes[0].SplitLeft[:1] },
		"no nodes":                      func(p *Params) { p.Nodes = nil },
	}
	for name, mutate := range cases {
		p := Params{NFeatures: base.NFeatures, Nodes: append([]NodeParams(nil), base.Nodes...)}
		p.Nodes[0].SplitValues = append([]relational.Value(nil), base.Nodes[0].SplitValues...)
		p.Nodes[0].SplitLeft = append([]bool(nil), base.Nodes[0].SplitLeft...)
		mutate(&p)
		if _, err := FromParams(2, p); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// TestExportImportRoundTrip pins Params export/import at the package level
// (the model codec adds the byte layer on top).
func TestExportImportRoundTrip(t *testing.T) {
	features := []ml.Feature{{Name: "a", Cardinality: 4}, {Name: "b", Cardinality: 3}}
	ds := mustRows(features, []relational.Value{
		0, 0, 1, 0, 2, 1, 3, 1, 0, 2, 1, 2, 2, 0, 3, 2,
	}, []int8{0, 0, 1, 1, 0, 1, 1, 0})
	tr := New(Config{Criterion: Gini, MinSplit: 2, CP: 0})
	if err := tr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	p, err := tr.ExportParams()
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromParams(len(features), p)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]relational.Value, 2)
	for a := relational.Value(0); a < 4; a++ {
		for b := relational.Value(0); b < 3; b++ {
			row[0], row[1] = a, b
			if tr.Predict(row) != got.Predict(row) {
				t.Fatalf("(%d,%d): prediction changed across export/import", a, b)
			}
		}
	}
}
