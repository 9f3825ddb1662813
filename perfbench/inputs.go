package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/relational"
)

// tableCSV is one generated table, held as the CSV bytes a user would ingest.
type tableCSV struct {
	name   string
	schema *relational.Schema
	data   []byte
}

// inputs is a generated star schema in CSV form: the fact table first, then
// its dimension tables in foreign-key order.
type inputs struct {
	fact tableCSV
	dims []tableCSV
}

// generate builds the named dataset at the given scale from the seed and
// serializes every table to CSV in memory. It is input preparation, never
// timed.
func generate(name string, scale int, seed uint64) (*inputs, error) {
	spec, err := dataset.SpecByName(name)
	if err != nil {
		return nil, err
	}
	ss, err := dataset.Generate(spec, scale, seed)
	if err != nil {
		return nil, err
	}
	toCSV := func(t *relational.Table) (tableCSV, error) {
		var b bytes.Buffer
		if err := relational.WriteCSV(&b, t); err != nil {
			return tableCSV{}, fmt.Errorf("csv %s: %w", t.Name, err)
		}
		return tableCSV{name: t.Name, schema: t.Schema(), data: b.Bytes()}, nil
	}
	in := &inputs{}
	if in.fact, err = toCSV(ss.Fact); err != nil {
		return nil, err
	}
	for _, d := range ss.DimensionNames() {
		tc, err := toCSV(ss.Dimensions[d])
		if err != nil {
			return nil, err
		}
		in.dims = append(in.dims, tc)
	}
	return in, nil
}

// ingest parses every table from its CSV bytes and validates the star
// schema — the first half of what a user pays before training.
func (in *inputs) ingest() (*relational.StarSchema, error) {
	fact, err := relational.ReadCSV(bytes.NewReader(in.fact.data), in.fact.name, in.fact.schema)
	if err != nil {
		return nil, err
	}
	dims := make([]*relational.Table, len(in.dims))
	for i, d := range in.dims {
		if dims[i], err = relational.ReadCSV(bytes.NewReader(d.data), d.name, d.schema); err != nil {
			return nil, err
		}
	}
	return relational.NewStarSchema(fact, dims...)
}

// repeatSetup runs one set-up repetition at least 15 times, then until a
// tenth of the run's measured time is spent or 300 are done. setup_s is the
// median over the repetitions, so a slow one does not move it. Each
// repetition after the first tears the previous one down, and starts from
// a collected heap, as a fresh process's set-up would, so none pays for the
// garbage of the one before.
func repeatSetup(cfg config, setup, teardown func() error) error {
	lo, hi := 15, 300
	if cfg.tiny {
		lo, hi = 3, 3
	}
	deadline := time.Now().Add(cfg.duration(0.1))
	for i := 0; i < hi && (i < lo || time.Now().Before(deadline)); i++ {
		if i > 0 {
			if err := teardown(); err != nil {
				return err
			}
		}
		runtime.GC()
		if err := setup(); err != nil {
			return err
		}
	}
	return nil
}

// phaseTimes collects repeated set-up phase durations in seconds.
type phaseTimes map[string][]float64

func (p phaseTimes) add(name string, d time.Duration) { p[name] = append(p[name], d.Seconds()) }

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
