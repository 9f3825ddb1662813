package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fk"
	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/texttable"
	"repro/internal/tree"
)

// CompressionPoint is one budget value of a Figure 10 panel: the NoJoin
// gini-tree accuracy with the FK domain compressed to l buckets, under the
// random-hash and sort-based mappings.
type CompressionPoint struct {
	Budget    int
	RandomAcc float64
	SortAcc   float64
}

// CompressionPanel is one dataset's Figure 10 panel.
type CompressionPanel struct {
	Dataset string
	FKName  string
	Points  []CompressionPoint
}

// Figure10 reproduces the FK domain-compression study on Flights and Yelp:
// fit the compressor on the training split of the NoJoin view (targeting
// the largest-domain usable FK), compress the whole dataset, tune a gini
// tree, and report holdout accuracy per budget. Random hashing is averaged
// over five draws as in the paper.
func Figure10(o Options, budgets []int) ([]CompressionPanel, error) {
	o = o.withDefaults()
	if len(budgets) == 0 {
		budgets = []int{2, 5, 10, 25, 50}
	}
	var out []CompressionPanel
	for _, name := range []string{"Flights", "Yelp"} {
		env, err := envFor(name, o)
		if err != nil {
			return nil, err
		}
		train, val, test, err := env.ViewSplits(ml.NoJoin, nil)
		if err != nil {
			return nil, err
		}
		fkCol := widestFK(train)
		if fkCol < 0 {
			return nil, fmt.Errorf("experiments: %s has no FK feature to compress", name)
		}
		panel := CompressionPanel{Dataset: name, FKName: train.Features[fkCol].Name}
		m := train.Features[fkCol].Cardinality
		for _, l := range budgets {
			if l >= m {
				continue
			}
			// Random hashing: average 5 seeds.
			randSum := 0.0
			const hashRuns = 5
			for h := 0; h < hashRuns; h++ {
				hash, err := fk.NewRandomHash(m, l, rng.New(o.Seed+uint64(100*h+l)))
				if err != nil {
					return nil, err
				}
				acc, err := compressedTreeAccuracy(train, val, test, fkCol, hash, o)
				if err != nil {
					return nil, err
				}
				randSum += acc
			}
			sort, err := fk.NewSortBased(train, fkCol, l, rng.New(o.Seed+uint64(l)))
			if err != nil {
				return nil, err
			}
			sortAcc, err := compressedTreeAccuracy(train, val, test, fkCol, sort, o)
			if err != nil {
				return nil, err
			}
			panel.Points = append(panel.Points, CompressionPoint{
				Budget:    l,
				RandomAcc: randSum / hashRuns,
				SortAcc:   sortAcc,
			})
		}
		out = append(out, panel)

		fmt.Fprintf(o.Out, "Figure 10 (%s): FK domain compression of %s (|D|=%d), NoJoin gini tree\n",
			name, panel.FKName, m)
		tab := texttable.New("budget", "Random", "Sort-based")
		for _, p := range panel.Points {
			tab.Row(p.Budget, texttable.F(p.RandomAcc), texttable.F(p.SortAcc))
		}
		if err := tab.Render(o.Out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// widestFK returns the FK feature with the largest usable domain.
func widestFK(ds *ml.Dataset) int {
	best, bestCard := -1, 0
	for j, f := range ds.Features {
		if f.IsFK && f.Cardinality > bestCard {
			best, bestCard = j, f.Cardinality
		}
	}
	return best
}

// compressedTreeAccuracy applies one compressor to all three splits, tunes a
// gini tree on train/val, and returns holdout accuracy.
func compressedTreeAccuracy(train, val, test *ml.Dataset, fkCol int, c fk.Compressor, o Options) (float64, error) {
	ctrain, err := fk.CompressFeature(train, fkCol, c)
	if err != nil {
		return 0, err
	}
	cval, err := fk.CompressFeature(val, fkCol, c)
	if err != nil {
		return 0, err
	}
	ctest, err := fk.CompressFeature(test, fkCol, c)
	if err != nil {
		return 0, err
	}
	spec := core.TreeSpec(tree.Gini, o.Effort)
	cls, _, _, err := spec.Train(ctrain, cval, o.Seed+21)
	if err != nil {
		return 0, err
	}
	return ml.Accuracy(cls, ctest), nil
}

// SmoothingPoint is one γ value of Figure 11: the average OneXr test error
// when a fraction γ of the FK domain is unseen in training, for JoinAll /
// NoJoin / NoFK under the given smoother.
type SmoothingPoint struct {
	Gamma  float64
	Errors [3]float64 // indexed by ml.View
}

// SmoothingPanel is one smoothing strategy's Figure 11 panel.
type SmoothingPanel struct {
	Strategy string // "random" or "xr"
	Points   []SmoothingPoint
}

// Figure11 reproduces the FK smoothing study on OneXr: γ sweeps the
// fraction of FK values withheld from training; unseen test FKs are
// remapped by the smoother. Panel A uses random reassignment, panel B the
// X_R-based minimum-l0 reassignment (which needs the dimension table as
// side information even under NoJoin).
func Figure11(o Options, gammas []float64) ([]SmoothingPanel, error) {
	o = o.withDefaults()
	if len(gammas) == 0 {
		gammas = []float64{0, 0.25, 0.5, 0.75, 0.9}
	}
	var out []SmoothingPanel
	for _, strategy := range []string{"random", "xr"} {
		panel := SmoothingPanel{Strategy: strategy}
		for _, g := range gammas {
			errs, err := smoothingErrors(o, g, strategy)
			if err != nil {
				return nil, err
			}
			panel.Points = append(panel.Points, SmoothingPoint{Gamma: g, Errors: errs})
		}
		out = append(out, panel)

		fmt.Fprintf(o.Out, "Figure 11 (%s smoothing): OneXr avg test error vs unseen-FK fraction γ\n", strategy)
		tab := texttable.New("gamma", "JoinAll", "NoJoin", "NoFK")
		for _, p := range panel.Points {
			tab.Row(p.Gamma,
				texttable.F(p.Errors[ml.JoinAll]),
				texttable.F(p.Errors[ml.NoJoin]),
				texttable.F(p.Errors[ml.NoFK]))
		}
		if err := tab.Render(o.Out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// smoothingErrors runs the Monte-Carlo smoothing experiment at one γ.
func smoothingErrors(o Options, gamma float64, strategy string) ([3]float64, error) {
	var sums [3]float64
	sc, err := sim.NewOneXr(defNS, defNR, defDS, defDR, defP, 2, sim.Skew{}, o.Seed+23)
	if err != nil {
		return sums, err
	}
	root := rng.New(o.Seed + 29)
	counts := 0
	for run := 0; run < o.Runs; run++ {
		r := root.Split()
		trial, err := sc.Sample(r)
		if err != nil {
			return sums, err
		}
		// Withhold a γ-fraction of FK values from training by filtering
		// training rows whose FK falls into the withheld set. FK is the
		// last NoJoin feature.
		withheld := withheldSet(defNR, gamma, r)
		for _, v := range []ml.View{ml.JoinAll, ml.NoJoin, ml.NoFK} {
			train := trial.Train[v]
			fkIdx := fkIndex(train)
			if fkIdx >= 0 {
				train = filterRows(train, fkIdx, withheld)
			}
			var smoother tree.Smoother
			if fkIdx >= 0 {
				switch strategy {
				case "xr":
					smoother, err = fk.NewXRSmoother(train, fkIdx, sc.Dimension(), r.Uint64())
					if err != nil {
						return sums, err
					}
				default:
					smoother, err = fk.NewRandomSmoother(train, r.Uint64())
					if err != nil {
						return sums, err
					}
				}
			}
			tr := tree.New(tree.Config{
				Criterion: tree.Gini, MinSplit: 10, CP: 1e-3,
				Unseen: tree.UnseenSmooth, Smoother: smoother,
			})
			if err := tr.Fit(train); err != nil {
				return sums, err
			}
			sums[v] += ml.Error(tr, trial.Test[v])
		}
		counts++
	}
	for v := range sums {
		sums[v] /= float64(counts)
	}
	return sums, nil
}

// withheldSet draws ⌊γ·nR⌋ FK values to withhold.
func withheldSet(nR int, gamma float64, r *rng.RNG) map[int32]bool {
	k := int(gamma * float64(nR))
	if k >= nR {
		k = nR - 1 // always keep at least one FK value trainable
	}
	perm := r.Perm(nR)
	out := make(map[int32]bool, k)
	for _, v := range perm[:k] {
		out[int32(v)] = true
	}
	return out
}

// fkIndex finds the FK feature of a dataset view (-1 if absent, e.g. NoFK).
func fkIndex(ds *ml.Dataset) int {
	for j, f := range ds.Features {
		if f.IsFK {
			return j
		}
	}
	return -1
}

// filterRows drops training rows whose FK value is withheld.
func filterRows(ds *ml.Dataset, fkIdx int, withheld map[int32]bool) *ml.Dataset {
	vals := make([]relational.Value, ds.NumExamples())
	ds.ScanFeature(vals, fkIdx, 0)
	var keep []int
	for i, v := range vals {
		if !withheld[v] {
			keep = append(keep, i)
		}
	}
	return ds.Subset(keep)
}
