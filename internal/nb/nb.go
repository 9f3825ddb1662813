// Package nb implements categorical Naive Bayes with Laplace smoothing and
// the greedy backward feature-selection wrapper the paper pairs it with
// ("Naive Bayes with BFS", §3). Backward selection starts from the full
// feature set and repeatedly drops the feature whose removal most improves
// validation accuracy, stopping when no removal helps — this wrapper is what
// makes NoJoin's runtime win dramatic for NB (Figure 1): the search is
// quadratic in the number of features, so dropping d_R foreign features a
// priori shrinks it substantially.
package nb

import (
	"fmt"
	"time"

	"repro/internal/ml"
	"repro/internal/relational"
)

// Config configures the Naive Bayes classifier.
type Config struct {
	// Alpha is the Laplace smoothing pseudo-count (default 1, the standard
	// "add one" smoothing cited by the paper for handling sparse counts).
	Alpha float64
}

// fitMorsel is the chunk size of one ScanFeature step on the batch path:
// large enough to amortize the per-morsel interface call, small enough that
// the value buffer (8 KiB) and the feature's count range stay cache-resident.
const fitMorsel = 2048

// NaiveBayes is a categorical Naive Bayes classifier over a (possibly
// selected) subset of features.
type NaiveBayes struct {
	cfg Config
	// logPrior[c] is log P(Y=c).
	logPrior [2]float64
	// logLik[j][v][c] is log P(X_j = v | Y = c), indexed via enc offsets:
	// stored flat as logLik[enc.Index(j,v)*2 + c].
	logLik []float64
	enc    *ml.Encoder
	// active[j] reports whether feature j participates in prediction;
	// backward selection clears entries rather than re-materializing data.
	active []bool
}

// New returns an unfitted classifier.
func New(cfg Config) *NaiveBayes {
	if cfg.Alpha <= 0 {
		cfg.Alpha = 1
	}
	return &NaiveBayes{cfg: cfg}
}

// Name implements ml.Named.
func (nb *NaiveBayes) Name() string { return "NaiveBayes" }

// Fit estimates priors and per-feature conditional tables.
//
// Counting runs column-at-a-time: the labels are scanned once
// into a dense vector, then every feature's conditional table is filled by
// morsel-sized ScanFeature batches, with features fanned out across
// goroutines (each feature owns a disjoint slice of the count array, so the
// reduction is race-free and deterministic — the counts are order-
// independent integer sums). On a columnar storage engine each batch is a
// sequential scan of one narrow column; on the row-major engine it is a
// strided gather.
func (nb *NaiveBayes) Fit(train *ml.Dataset) error {
	if train.NumExamples() == 0 {
		return fmt.Errorf("nb: empty training set")
	}
	n := train.NumExamples()
	d := train.NumFeatures()
	nb.enc = ml.NewEncoder(train.Features)
	nb.active = make([]bool, d)
	for j := range nb.active {
		nb.active[j] = true
	}

	var classN [2]float64
	counts := make([]float64, nb.enc.Dims*2)
	countT0 := time.Now()
	labels := make([]int8, n)
	train.ScanLabels(labels, 0)
	for _, y := range labels {
		classN[y]++
	}
	// Fan (feature, span) tasks across the pool: every feature's scan
	// range is sharded into spans (ml.ScanSpans — whole morsels, snapped
	// to segment boundaries over a segmented engine so each task pins one
	// segment), each task tallies its span into a private slab, and the
	// slabs merge in (feature, span) order. Counts are integer-valued
	// sums, so the merged table is bit-identical to a per-example count
	// while narrow feature sets (NoJoin's handful of
	// columns) still saturate the pool.
	cuts := ml.ScanSpans(train)
	spans := len(cuts) - 1
	slabs := make([][]float64, d*spans)
	ml.ParallelFor(d*spans, func(task int) {
		j, s := task/spans, task%spans
		lo, hi := cuts[s], cuts[s+1]
		if lo == hi {
			return
		}
		slab := make([]float64, train.Features[j].Cardinality*2)
		buf := make([]relational.Value, min(fitMorsel, hi-lo))
		for from := lo; from < hi; {
			m := train.ScanFeature(buf[:min(len(buf), hi-from)], j, from)
			for k := 0; k < m; k++ {
				slab[int(buf[k])*2+int(labels[from+k])]++
			}
			from += m
		}
		slabs[task] = slab
	})
	reduceT0 := time.Now()
	for j := 0; j < d; j++ {
		base := nb.enc.Offsets[j] * 2
		for s := 0; s < spans; s++ {
			slab := slabs[j*spans+s]
			for i, c := range slab {
				counts[base+i] += c
			}
		}
	}
	reduceSpan.ObserveSince(reduceT0)
	countSpan.ObserveSince(countT0)
	for c := 0; c < 2; c++ {
		nb.logPrior[c] = logf((classN[c] + nb.cfg.Alpha) / (float64(n) + 2*nb.cfg.Alpha))
	}
	nb.logLik = make([]float64, nb.enc.Dims*2)
	for j := 0; j < d; j++ {
		card := float64(train.Features[j].Cardinality)
		for v := 0; v < train.Features[j].Cardinality; v++ {
			k := nb.enc.Index(j, relational.Value(v))
			for c := 0; c < 2; c++ {
				nb.logLik[k*2+c] = logf((counts[k*2+c] + nb.cfg.Alpha) / (classN[c] + nb.cfg.Alpha*card))
			}
		}
	}
	return nil
}

// SetActive enables or disables a feature for prediction (used by backward
// selection). It panics if called before Fit or with j out of range.
func (nb *NaiveBayes) SetActive(j int, on bool) { nb.active[j] = on }

// ActiveFeatures returns the indices of currently active features.
func (nb *NaiveBayes) ActiveFeatures() []int {
	var out []int
	for j, on := range nb.active {
		if on {
			out = append(out, j)
		}
	}
	return out
}

// Predict classifies one example using only active features.
func (nb *NaiveBayes) Predict(row []relational.Value) int8 {
	s0, s1 := nb.logPrior[0], nb.logPrior[1]
	for j, v := range row {
		if !nb.active[j] {
			continue
		}
		k := nb.enc.Index(j, v)
		s0 += nb.logLik[k*2]
		s1 += nb.logLik[k*2+1]
	}
	if s1 >= s0 {
		return 1
	}
	return 0
}

func logf(x float64) float64 {
	// All inputs are strictly positive by Laplace smoothing; this wrapper
	// exists only to keep the call sites compact.
	return ln(x)
}
