package model

import (
	"fmt"

	"repro/internal/ann"
	"repro/internal/knn"
	"repro/internal/linear"
	"repro/internal/ml"
	"repro/internal/nb"
	"repro/internal/svm"
	"repro/internal/tree"
)

// codecFns is one kind's payload (de)serializer pair. decode receives the
// artifact's feature schema, which several learners need to rebuild their
// one-hot encoders.
type codecFns struct {
	encode func(w *writer, m *Model) error
	decode func(r *reader, features []ml.Feature) (any, error)
}

// Kind tags, one per serializable learner.
const (
	KindNaiveBayes = "nb.NaiveBayes"
	KindTree       = "tree.Tree"
	KindLogReg     = "linear.LogReg"
	KindSVM        = "svm.SVM"
	KindOneNN      = "knn.OneNN"
	KindMLP        = "ann.MLP"
	KindConstant   = "ml.Constant"
)

// KindOf maps a learner implementation to its kind tag.
func KindOf(impl any) (string, error) {
	switch impl.(type) {
	case *nb.NaiveBayes:
		return KindNaiveBayes, nil
	case *tree.Tree:
		return KindTree, nil
	case *linear.LogReg:
		return KindLogReg, nil
	case *svm.SVM:
		return KindSVM, nil
	case *knn.OneNN:
		return KindOneNN, nil
	case *ann.MLP:
		return KindMLP, nil
	case *ml.ConstantClassifier:
		return KindConstant, nil
	default:
		return "", fmt.Errorf("model: no codec for %T", impl)
	}
}

// kinds is the codec registry. Payload layouts are append-only within a
// container version; a new layout means a new magic.
var kinds = map[string]codecFns{
	KindNaiveBayes: {encodeNB, decodeNB},
	KindTree:       {encodeTree, decodeTree},
	KindLogReg:     {encodeLogReg, decodeLogReg},
	KindSVM:        {encodeSVM, decodeSVM},
	KindOneNN:      {encodeKNN, decodeKNN},
	KindMLP:        {encodeMLP, decodeMLP},
	KindConstant:   {encodeConstant, decodeConstant},
}

func implAs[T any](m *Model) (T, error) {
	impl, ok := m.Impl.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("model: kind %q holds %T", m.Kind, m.Impl)
	}
	return impl, nil
}

func encodeNB(w *writer, m *Model) error {
	c, err := implAs[*nb.NaiveBayes](m)
	if err != nil {
		return err
	}
	p, err := c.ExportParams()
	if err != nil {
		return err
	}
	w.f64(p.Alpha)
	w.f64(p.LogPrior[0])
	w.f64(p.LogPrior[1])
	w.f64s(p.LogLik)
	w.bools(p.Active)
	return nil
}

func decodeNB(r *reader, features []ml.Feature) (any, error) {
	var p nb.Params
	p.Alpha = r.f64()
	p.LogPrior[0] = r.f64()
	p.LogPrior[1] = r.f64()
	p.LogLik = r.f64s()
	p.Active = r.bools()
	if r.err != nil {
		return nil, r.err
	}
	return nb.FromParams(features, p)
}

func encodeTree(w *writer, m *Model) error {
	c, err := implAs[*tree.Tree](m)
	if err != nil {
		return err
	}
	p, err := c.ExportParams()
	if err != nil {
		return err
	}
	w.u32(uint32(p.Criterion))
	w.u32(uint32(p.MinSplit))
	w.f64(p.CP)
	w.u32(uint32(p.MaxDepth))
	w.u32(uint32(p.Unseen))
	w.u32(uint32(p.NFeatures))
	w.u32(uint32(len(p.Nodes)))
	for _, nd := range p.Nodes {
		w.i64(int64(nd.Feature))
		w.i64(int64(nd.LeftChild))
		w.i64(int64(nd.RightChild))
		w.u8(uint8(nd.Prediction))
		w.i64(int64(nd.N))
		w.i64(int64(nd.NLeft))
		w.values(nd.SplitValues)
		w.bools(nd.SplitLeft)
	}
	return nil
}

func decodeTree(r *reader, features []ml.Feature) (any, error) {
	var p tree.Params
	p.Criterion = int(r.u32())
	p.MinSplit = int(r.u32())
	p.CP = r.f64()
	p.MaxDepth = int(r.u32())
	p.Unseen = int(r.u32())
	p.NFeatures = int(r.u32())
	n := r.count("tree node")
	if r.err != nil {
		return nil, r.err
	}
	p.Nodes = make([]tree.NodeParams, n)
	for i := range p.Nodes {
		p.Nodes[i] = tree.NodeParams{
			Feature:    int(r.i64()),
			LeftChild:  int(r.i64()),
			RightChild: int(r.i64()),
			Prediction: int8(r.u8()),
			N:          int(r.i64()),
			NLeft:      int(r.i64()),
		}
		p.Nodes[i].SplitValues = r.values()
		p.Nodes[i].SplitLeft = r.bools()
	}
	if r.err != nil {
		return nil, r.err
	}
	return tree.FromParams(len(features), p)
}

func encodeLogReg(w *writer, m *Model) error {
	c, err := implAs[*linear.LogReg](m)
	if err != nil {
		return err
	}
	p, err := c.ExportParams()
	if err != nil {
		return err
	}
	w.f64(p.Lambda)
	w.f64(p.L2)
	w.f64s(p.W)
	w.f64(p.B)
	return nil
}

func decodeLogReg(r *reader, features []ml.Feature) (any, error) {
	var p linear.Params
	p.Lambda = r.f64()
	p.L2 = r.f64()
	p.W = r.f64s()
	p.B = r.f64()
	if r.err != nil {
		return nil, r.err
	}
	return linear.FromParams(features, p)
}

func encodeSVM(w *writer, m *Model) error {
	c, err := implAs[*svm.SVM](m)
	if err != nil {
		return err
	}
	p, err := c.ExportParams()
	if err != nil {
		return err
	}
	w.u32(uint32(p.Kernel))
	w.f64(p.Gamma)
	w.u32(uint32(p.Dims))
	w.boolean(p.HasKernel)
	w.values(p.SVRows)
	w.f64s(p.SVAlphaY)
	w.f64(p.B)
	return nil
}

func decodeSVM(r *reader, features []ml.Feature) (any, error) {
	var p svm.Params
	p.Kernel = svm.KernelKind(r.u32())
	p.Gamma = r.f64()
	p.Dims = int(r.u32())
	p.HasKernel = r.boolean()
	p.SVRows = r.values()
	p.SVAlphaY = r.f64s()
	p.B = r.f64()
	if r.err != nil {
		return nil, r.err
	}
	return svm.FromParams(features, p)
}

func encodeKNN(w *writer, m *Model) error {
	c, err := implAs[*knn.OneNN](m)
	if err != nil {
		return err
	}
	p, err := c.ExportParams()
	if err != nil {
		return err
	}
	w.values(p.X)
	w.u32(uint32(len(p.Y)))
	for _, y := range p.Y {
		w.u8(uint8(y))
	}
	return nil
}

func decodeKNN(r *reader, features []ml.Feature) (any, error) {
	var p knn.Params
	p.X = r.values()
	n := r.count("label")
	if r.err != nil {
		return nil, r.err
	}
	p.Y = make([]int8, n)
	for i := range p.Y {
		p.Y[i] = int8(r.u8())
	}
	if r.err != nil {
		return nil, r.err
	}
	return knn.FromParams(features, p)
}

func encodeMLP(w *writer, m *Model) error {
	c, err := implAs[*ann.MLP](m)
	if err != nil {
		return err
	}
	p, err := c.ExportParams()
	if err != nil {
		return err
	}
	w.u32(uint32(p.Hidden1))
	w.u32(uint32(p.Hidden2))
	w.f64s(p.W1)
	w.f64s(p.B1)
	w.f64s(p.W2)
	w.f64s(p.B2)
	w.f64s(p.W3)
	w.f64(p.B3)
	return nil
}

func decodeMLP(r *reader, features []ml.Feature) (any, error) {
	var p ann.Params
	p.Hidden1 = int(r.u32())
	p.Hidden2 = int(r.u32())
	p.W1 = r.f64s()
	p.B1 = r.f64s()
	p.W2 = r.f64s()
	p.B2 = r.f64s()
	p.W3 = r.f64s()
	p.B3 = r.f64()
	if r.err != nil {
		return nil, r.err
	}
	return ann.FromParams(features, p)
}

func encodeConstant(w *writer, m *Model) error {
	c, err := implAs[*ml.ConstantClassifier](m)
	if err != nil {
		return err
	}
	w.u8(uint8(c.Class))
	return nil
}

func decodeConstant(r *reader, _ []ml.Feature) (any, error) {
	class := int8(r.u8())
	if r.err != nil {
		return nil, r.err
	}
	if class != 0 && class != 1 {
		return nil, fmt.Errorf("model: constant classifier class %d outside {0,1}", class)
	}
	return &ml.ConstantClassifier{Class: class}, nil
}
