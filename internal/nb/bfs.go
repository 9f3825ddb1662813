package nb

import (
	"fmt"

	"repro/internal/ml"
)

// BackwardSelect fits Naive Bayes on train and greedily deactivates
// features: at each round it tentatively drops each remaining feature,
// keeps the drop that most improves validation accuracy, and stops when no
// single drop improves it. The fitted model with its final active set is
// returned along with the validation accuracy achieved.
//
// The conditional tables are fitted once, and dropping a feature under
// Naive Bayes just omits its likelihood term. The validation split is read
// once too, as each example's one-hot indices (ml.ScanActiveIndices) and
// label; every candidate is then scored from that block by summing the
// active features' terms in feature order — Predict's sum, term for term,
// so each candidate's accuracy is ml.Accuracy's. The search scores up to d
// candidates in each of up to d rounds, each a pass of |validation| × d
// table reads: the cost profile that makes the Figure 1 NB runtimes so
// sensitive to avoiding joins.
func BackwardSelect(cfg Config, train, validation *ml.Dataset) (*NaiveBayes, float64, error) {
	if validation.NumExamples() == 0 {
		return nil, 0, fmt.Errorf("nb: empty validation set")
	}
	model := New(cfg)
	if err := model.Fit(train); err != nil {
		return nil, 0, err
	}
	idx, labels := ml.ScanActiveIndices(validation, model.enc)
	best := model.accuracy(idx, labels)
	for active := len(model.active); active > 1; active-- {
		bestDrop := -1
		bestAcc := best
		for j, on := range model.active {
			if !on {
				continue
			}
			model.active[j] = false
			acc := model.accuracy(idx, labels)
			model.active[j] = true
			if acc > bestAcc+1e-12 {
				bestAcc = acc
				bestDrop = j
			}
		}
		if bestDrop < 0 {
			break
		}
		model.active[bestDrop] = false
		best = bestAcc
	}
	return model, best, nil
}

// accuracy scores the model on a block of examples given as one-hot
// indices (row-major, one per feature) and labels: Predict's decision for
// each row, summed over the active features in feature order.
func (nb *NaiveBayes) accuracy(idx []int32, labels []int8) float64 {
	d := len(nb.active)
	correct := 0
	for i, y := range labels {
		s0, s1 := nb.logPrior[0], nb.logPrior[1]
		for j, k := range idx[i*d : (i+1)*d] {
			if nb.active[j] {
				s0 += nb.logLik[2*k]
				s1 += nb.logLik[2*k+1]
			}
		}
		if (s1 >= s0) == (y == 1) {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
