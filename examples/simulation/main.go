// Simulation: a minimal Monte-Carlo run of the paper's worst-case OneXr
// scenario — a lone foreign feature determines the label, yet the foreign
// key alone (NoJoin) matches the full join for a decision tree. The example
// prints the average test error and the Domingos bias / net-variance
// decomposition per feature view.
package main

import (
	"fmt"
	"log"

	"repro/internal/ml"
	"repro/internal/sim"
	"repro/internal/tree"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// OneXr at the paper's defaults: nS=1000, nR=40 (tuple ratio 25),
	// dS=dR=4, Bayes error 0.1.
	scenario, err := sim.NewOneXr(1000, 40, 4, 4, 0.1, 2, sim.Skew{}, 7)
	if err != nil {
		return err
	}
	learner := sim.Learner{
		Name: "DecisionTree(gini)",
		Train: func(train, val *ml.Dataset, seed uint64) (ml.Classifier, error) {
			grid := ml.NewGrid().Axis("minsplit", 1, 10, 100).Axis("cp", 1e-3, 0.01, 0)
			res, err := tree.GridSearch(grid, func(p ml.GridPoint) tree.Config {
				return tree.Config{
					Criterion: tree.Gini,
					MinSplit:  int(p["minsplit"]),
					CP:        p["cp"],
				}
			}, train, val)
			if err != nil {
				return nil, err
			}
			return res.Best, nil
		},
	}

	const runs = 20
	fmt.Printf("OneXr scenario, %d Monte-Carlo runs, Bayes error 0.10\n\n", runs)
	result, err := sim.MonteCarlo(scenario, learner, runs, 99)
	if err != nil {
		return err
	}
	for _, v := range []ml.View{ml.JoinAll, ml.NoJoin, ml.NoFK} {
		d := result.Views[v]
		fmt.Printf("%-8v avg test error %.4f | bias %.4f | net variance %+.4f\n",
			v, d.AvgTestError, d.AvgBias, d.NetVariance)
	}
	fmt.Println("\nNoJoin tracks JoinAll at tuple ratio 25 — the FD FK→Xr lets the tree")
	fmt.Println("use the foreign key as a stand-in for the discarded foreign feature.")
	return nil
}
