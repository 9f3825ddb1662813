package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile mirrors the metric lists of BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestCatalogMatchesBenchmarkFile keeps the program's metric catalog and
// workload list in step with BENCHMARK.json.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, cat []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(cat) != len(got) {
			t.Fatalf("%s: catalog has %d metrics, BENCHMARK.json %d", kind, len(cat), len(got))
		}
		for i, m := range cat {
			g := got[i]
			if m.name != g.Name || m.unit != g.Unit || m.better != g.Better {
				t.Errorf("%s[%d]: catalog %s %s %s, BENCHMARK.json %s %s %s",
					kind, i, m.name, m.unit, m.better, g.Name, g.Unit, g.Better)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// TestSmoke runs every workload at a tiny size in both passes and checks
// the result line: every catalog metric present with its unit, all ops
// correct, the train workload faulting segments, and every served answer
// agreeing with in-process Engine.Predict.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"train", "serve"} {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 1, trace: trace, tiny: true, workDir: t.TempDir()}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var out bytes.Buffer
			if err := rep.write(&out, trace); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			catalog := endToEnd
			if trace {
				catalog = perLayer
			}
			if len(res.Metrics) != len(catalog) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(catalog))
			}
			for _, m := range catalog {
				got, ok := res.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.name)
				case got.Unit != m.unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, m.name, got.Unit, m.unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
			if !trace {
				continue
			}
			switch name {
			case "train":
				if v := res.Metrics["relational.segcache_misses"].Value; v <= 0 {
					t.Errorf("train: %v segment faults per op, want > 0", v)
				}
			case "serve":
				if v := res.Metrics["serve.agreement"].Value; v != 1 {
					t.Errorf("serve: agreement %v, want 1", v)
				}
			}
		}
	}
}
