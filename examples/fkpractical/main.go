// FK-practical: demonstrates the two §6 techniques that make foreign-key
// features usable in production — lossy domain compression (for tree
// interpretability) and unseen-value smoothing (R's trees crash on FK
// values that never occurred in training; ours remap them).
package main

import (
	"fmt"
	"log"

	"repro/internal/fk"
	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/tree"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Sample one OneXr trial: NoJoin features are [XS..., FK].
	scenario, err := sim.NewOneXr(2000, 100, 2, 4, 0.1, 2, sim.Skew{}, 3)
	if err != nil {
		return err
	}
	r := rng.New(17)
	trial, err := scenario.Sample(r)
	if err != nil {
		return err
	}
	train := trial.Train[ml.NoJoin]
	val := trial.Val[ml.NoJoin]
	test := trial.Test[ml.NoJoin]
	fkCol := train.NumFeatures() - 1

	fit := func(tr, te *ml.Dataset) float64 {
		t := tree.New(tree.Config{Criterion: tree.Gini, MinSplit: 10, CP: 1e-3})
		if err := t.Fit(tr); err != nil {
			log.Fatal(err)
		}
		return ml.Accuracy(t, te)
	}

	// --- Part 1: domain compression. The FK has 100 values; compress to a
	// handful of buckets and compare random hashing vs sort-based.
	fmt.Println("Part 1: FK domain compression (|D_FK| = 100, NoJoin gini tree)")
	fmt.Printf("  %-10s %-10s %s\n", "budget", "Random", "Sort-based")
	for _, budget := range []int{2, 5, 10, 25, 50} {
		hash, err := fk.NewRandomHash(100, budget, rng.New(uint64(budget)))
		if err != nil {
			return err
		}
		sortc, err := fk.NewSortBased(train, fkCol, budget, rng.New(uint64(budget)*7))
		if err != nil {
			return err
		}
		var accs [2]float64
		for i, c := range []fk.Compressor{hash, sortc} {
			ctr, err := fk.CompressFeature(train, fkCol, c)
			if err != nil {
				return err
			}
			cte, err := fk.CompressFeature(test, fkCol, c)
			if err != nil {
				return err
			}
			accs[i] = fit(ctr, cte)
		}
		fmt.Printf("  %-10d %-10.4f %.4f\n", budget, accs[0], accs[1])
	}
	fmt.Printf("  uncompressed accuracy: %.4f (validation %.4f)\n\n", fit(train, test), fit(train, val))

	// --- Part 2: smoothing. Withhold 40% of FK values from training, then
	// classify test rows carrying them.
	fmt.Println("Part 2: smoothing FK values unseen in training (40% withheld)")
	withheld := map[int32]bool{}
	perm := rng.New(23).Perm(100)
	for _, v := range perm[:40] {
		withheld[int32(v)] = true
	}
	vals := make([]relational.Value, train.NumExamples())
	train.ScanFeature(vals, fkCol, 0)
	var keep []int
	for i, v := range vals {
		if !withheld[v] {
			keep = append(keep, i)
		}
	}
	filtered := train.Subset(keep)

	randomSm, err := fk.NewRandomSmoother(filtered, 29)
	if err != nil {
		return err
	}
	xrSm, err := fk.NewXRSmoother(filtered, fkCol, scenario.Dimension(), 31)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name     string
		smoother tree.Smoother
	}{
		{"majority-route (no smoother)", nil},
		{"random reassignment", randomSm},
		{"X_R-based reassignment", xrSm},
	} {
		cfg := tree.Config{Criterion: tree.Gini, MinSplit: 10, CP: 1e-3}
		if c.smoother != nil {
			cfg.Unseen = tree.UnseenSmooth
			cfg.Smoother = c.smoother
		}
		t := tree.New(cfg)
		if err := t.Fit(filtered); err != nil {
			return err
		}
		fmt.Printf("  %-30s holdout accuracy %.4f\n", c.name, ml.Accuracy(t, test))
	}
	fmt.Println("\nX_R-based smoothing uses the dimension table as side information only —")
	fmt.Println("the model still never trains on foreign features (best of both worlds).")
	return nil
}
