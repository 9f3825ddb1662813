// Package serve is the online inference subsystem: it scores rows of a star
// schema's fact table against a persisted model *without materializing the
// KFK join* — the prediction-time counterpart of the paper's training-time
// thesis.
//
// A request carries only what the fact table knows: home attributes and
// foreign-key ids. For models that are linear in the one-hot features
// (Naive Bayes, logistic regression, linear-kernel SVM — the
// ml.LinearExporter surface), each dimension table's entire contribution to
// the decision score is a per-dimension-row constant, so the engine
// precomputes one partial score per dimension row at load time and serving
// degenerates to one array lookup per dimension table per request:
//
//	score = bias + Σ_{fact features} w[j, x_j] + Σ_{dims} partial[d][fk_d]
//
// This is FDB-style factorized evaluation applied at serving time: O(d_S+q)
// per request instead of O(d_S + Σ d_R) plus the gather. Models that are not
// linear in the features (trees, kNN, ANN, non-linear SVM kernels) fall back
// to gather-based row assembly through relational.JoinView.AssembleRow — the
// same per-dimension plans the training-time zero-copy join uses.
//
// The factorized and gather paths compute bit-identical scores by
// construction: both fold the fact-feature weights in model order and each
// dimension group's weights in model order (the precomputed partial is
// exactly that fold, hoisted per dimension row), so choosing the fast path
// never changes a prediction.
package serve

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/relational"
)

// InputFeature describes one value an inference request must carry, in
// request order: the model's fact-local features (home attributes and
// foreign keys), plus auxiliary foreign keys that are not model features but
// are needed to resolve a dimension's features (open-domain FKs, which the
// feature views exclude as features while keeping their dimensions' columns).
type InputFeature struct {
	Name        string
	Cardinality int
	IsFK        bool
	// Dim names the referenced dimension table for foreign keys.
	Dim string
	// Aux marks a foreign key that only resolves dimension features and
	// carries no weight of its own.
	Aux bool
}

// factSlot maps one fact-local model feature to its request position.
type factSlot struct {
	modelIdx int
	input    int
}

// dimFeat is one dimension-table feature of the model: its model position
// and the column in the dimension table it reads.
type dimFeat struct {
	modelIdx int
	dimCol   int
}

// dimGroup collects one dimension table's model features. In linear mode,
// partials[r] is the dimension's full score contribution for dimension row
// r — the factorized lookup table.
type dimGroup struct {
	name     string
	dim      *relational.Table
	fkInput  int
	feats    []dimFeat
	partials []float64
	// hpartial is the hidden-factorized sibling of partials: row r holds the
	// dimension's h-wide contribution to the first-layer pre-activation.
	hpartial []float64
}

// Engine scores requests against one model over one star schema. It is
// immutable after construction and safe for concurrent use.
type Engine struct {
	mdl    *model.Model
	cls    ml.Classifier
	scorer ml.Scorer
	star   *relational.StarSchema
	jv     *relational.JoinView

	inputs       []InputFeature
	inputIndex   map[string]int
	inputFactCol []int
	factFeats    []factSlot
	groups       []dimGroup
	modelCols    []int // model feature -> joined-schema column
	factW        int
	joinedW      int

	linear bool
	bias   float64
	w      []float64
	enc    *ml.Encoder

	// hidden marks the factorized-first-layer path for models whose input
	// layer is linear in the one-hot features (the MLP): hb/hw are the
	// exported layer (bias + one hwidth-wide row per one-hot dimension) and
	// each dimGroup.hpartial hoists a dimension's whole first-layer
	// contribution into a per-row vector, so a batched forward pass never
	// gathers dimension rows at all.
	hidden bool
	hf     ml.HiddenLinearExporter
	hb     []float64
	hw     []float64
	hwidth int

	scratchPool sync.Pool
}

// joinAllFeatures derives the JoinAll feature schema of a star schema's
// joined relation — what a model trained on this schema would carry.
func joinAllFeatures(jv *relational.JoinView) []ml.Feature {
	schema := jv.Schema()
	cols := ml.ViewColumns(jv, ml.JoinAll, nil)
	feats := make([]ml.Feature, len(cols))
	for j, c := range cols {
		col := schema.Cols[c]
		feats[j] = ml.Feature{
			Name:        col.Name,
			Cardinality: col.Domain.Size,
			IsFK:        col.Kind == relational.KindForeignKey,
		}
	}
	return feats
}

// NewEngine binds a persisted model to the star schema it will serve,
// resolving every model feature to a fact column or a dimension column and —
// for linear models — precomputing the per-dimension-row partial scores.
// Any unresolvable or mismatched feature is rejected with a typed
// *model.SchemaMismatchError.
func NewEngine(m *model.Model, ss *relational.StarSchema) (*Engine, error) {
	cls, ok := m.Classifier()
	if !ok {
		return nil, fmt.Errorf("serve: model kind %q is not a binary classifier", m.Kind)
	}
	jv, err := relational.NewJoinView(ss)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		mdl:       m,
		cls:       cls,
		star:      ss,
		jv:        jv,
		modelCols: make([]int, len(m.Features)),
		factW:     ss.Fact.Schema().Width(),
		joinedW:   jv.Schema().Width(),
	}
	e.scorer, _ = cls.(ml.Scorer)

	mismatch := func(format string, args ...any) error {
		return &model.SchemaMismatchError{
			Want:   m.Fingerprint(),
			Got:    model.FingerprintFeatures(joinAllFeatures(jv)),
			Detail: fmt.Sprintf(format, args...),
		}
	}

	factSchema := ss.Fact.Schema()
	jschema := jv.Schema()
	groupOf := map[string]int{}   // dim name -> index in e.groups
	fkInputOf := map[string]int{} // dim name -> FK input index
	for j, f := range m.Features {
		jcol := jschema.Index(f.Name)
		if jcol < 0 {
			return nil, mismatch("model feature %q does not exist in the star schema's join", f.Name)
		}
		e.modelCols[j] = jcol
		if dim, featName, isDim := splitDimFeature(ss, f.Name); isDim {
			if f.IsFK {
				return nil, mismatch("model feature %q is flagged as a foreign key but names a dimension column", f.Name)
			}
			dcol := dim.Schema().Index(featName)
			if dcol < 0 || dim.Schema().Cols[dcol].Kind != relational.KindFeature {
				return nil, mismatch("model feature %q has no feature column %q in dimension %q", f.Name, featName, dim.Name)
			}
			if size := dim.Schema().Cols[dcol].Domain.Size; size != f.Cardinality {
				return nil, mismatch("model feature %q has domain size %d, dimension column has %d", f.Name, f.Cardinality, size)
			}
			gi, ok := groupOf[dim.Name]
			if !ok {
				gi = len(e.groups)
				groupOf[dim.Name] = gi
				e.groups = append(e.groups, dimGroup{name: dim.Name, dim: dim, fkInput: -1})
			}
			e.groups[gi].feats = append(e.groups[gi].feats, dimFeat{modelIdx: j, dimCol: dcol})
			continue
		}
		fcol := factSchema.Index(f.Name)
		if fcol < 0 {
			return nil, mismatch("model feature %q does not exist in the fact table", f.Name)
		}
		c := factSchema.Cols[fcol]
		switch c.Kind {
		case relational.KindForeignKey:
			if !f.IsFK {
				return nil, mismatch("model feature %q is a foreign key in the fact table but not in the model", f.Name)
			}
			if c.Domain.Size != f.Cardinality {
				return nil, mismatch("foreign key %q has domain size %d, fact column has %d", f.Name, f.Cardinality, c.Domain.Size)
			}
			fkInputOf[c.Refs] = len(e.inputs)
			e.factFeats = append(e.factFeats, factSlot{modelIdx: j, input: len(e.inputs)})
			e.inputs = append(e.inputs, InputFeature{Name: f.Name, Cardinality: f.Cardinality, IsFK: true, Dim: c.Refs})
			e.inputFactCol = append(e.inputFactCol, fcol)
		case relational.KindFeature:
			if f.IsFK {
				return nil, mismatch("model feature %q is flagged as a foreign key but is a plain fact column", f.Name)
			}
			if c.Domain.Size != f.Cardinality {
				return nil, mismatch("model feature %q has domain size %d, fact column has %d", f.Name, f.Cardinality, c.Domain.Size)
			}
			e.factFeats = append(e.factFeats, factSlot{modelIdx: j, input: len(e.inputs)})
			e.inputs = append(e.inputs, InputFeature{Name: f.Name, Cardinality: f.Cardinality})
			e.inputFactCol = append(e.inputFactCol, fcol)
		default:
			return nil, mismatch("model feature %q is a %v column in the fact table", f.Name, c.Kind)
		}
	}

	// Wire every dimension group to its foreign-key request slot. A group
	// whose FK is not a model feature (open-domain FKs) still needs the id
	// to resolve its columns, so the FK becomes an auxiliary input.
	for gi := range e.groups {
		g := &e.groups[gi]
		if in, ok := fkInputOf[g.name]; ok {
			g.fkInput = in
			continue
		}
		fcol := -1
		for _, c := range factSchema.ColumnsOfKind(relational.KindForeignKey) {
			if factSchema.Cols[c].Refs == g.name {
				fcol = c
				break
			}
		}
		if fcol < 0 {
			return nil, mismatch("dimension %q contributes model features but no fact foreign key references it", g.name)
		}
		g.fkInput = len(e.inputs)
		e.inputs = append(e.inputs, InputFeature{
			Name:        factSchema.Cols[fcol].Name,
			Cardinality: factSchema.Cols[fcol].Domain.Size,
			IsFK:        true,
			Dim:         g.name,
			Aux:         true,
		})
		e.inputFactCol = append(e.inputFactCol, fcol)
	}

	// Linear mode: export the one-hot weights and hoist each dimension's
	// score contribution into a per-row lookup table. The fold order per row
	// is exactly scoreRow's, which is what makes the two paths bit-identical.
	if le, ok := cls.(ml.LinearExporter); ok {
		if bias, w, ok := le.ExportLinear(m.Features); ok {
			e.linear = true
			e.bias = bias
			e.w = w
			e.enc = ml.NewEncoder(m.Features)
			for gi := range e.groups {
				g := &e.groups[gi]
				g.partials = make([]float64, g.dim.NumRows())
				for r := range g.partials {
					p := 0.0
					for _, f := range g.feats {
						p += e.w[e.enc.Offsets[f.modelIdx]+int(g.dim.At(r, f.dimCol))]
					}
					g.partials[r] = p
				}
			}
		}
	}

	// Hidden-factorized mode: the same per-dimension hoist one layer into a
	// network whose *input* layer is linear in the features (the MLP). Each
	// dimension row's embedding-row sum collapses into one precomputed
	// hwidth-vector, folded in model order per group — the first-layer
	// analogue of the linear partials. Only taken for pure classifiers
	// (no Scorer): the batched forward emits classes, and dropping a score
	// the per-request path would have carried must never depend on load.
	if !e.linear && e.scorer == nil {
		if hf, ok := cls.(ml.HiddenLinearExporter); ok {
			if hb, hw, h, ok := hf.ExportHiddenLinear(m.Features); ok && h > 0 {
				e.hidden = true
				e.hf = hf
				e.hb, e.hw, e.hwidth = hb, hw, h
				e.enc = ml.NewEncoder(m.Features)
				for gi := range e.groups {
					g := &e.groups[gi]
					g.hpartial = make([]float64, g.dim.NumRows()*h)
					for r := 0; r < g.dim.NumRows(); r++ {
						row := g.hpartial[r*h : (r+1)*h]
						for _, f := range g.feats {
							w := e.hw[(e.enc.Offsets[f.modelIdx]+int(g.dim.At(r, f.dimCol)))*h:][:h]
							for u := range row {
								row[u] += w[u]
							}
						}
					}
				}
			}
		}
	}
	e.inputIndex = make(map[string]int, len(e.inputs))
	for i, f := range e.inputs {
		e.inputIndex[f.Name] = i
	}
	return e, nil
}

// splitDimFeature reports whether a model feature name is "<dim>.<col>" for
// a dimension of the star schema.
func splitDimFeature(ss *relational.StarSchema, name string) (*relational.Table, string, bool) {
	i := strings.IndexByte(name, '.')
	if i <= 0 {
		return nil, "", false
	}
	dim, ok := ss.Dimensions[name[:i]]
	if !ok {
		return nil, "", false
	}
	return dim, name[i+1:], true
}

// Model returns the served model.
func (e *Engine) Model() *model.Model { return e.mdl }

// Factorized reports whether the engine scores through precomputed
// per-dimension partials (linear models) rather than per-request gathers.
func (e *Engine) Factorized() bool { return e.linear }

// HiddenFactorized reports whether batched scoring folds precomputed
// per-dimension first-layer partials (the MLP path) instead of gathering
// dimension rows per request.
func (e *Engine) HiddenFactorized() bool { return e.hidden }

// BatchServeable reports whether batching concurrent requests into one call
// buys this engine anything: only a factorized first layer (the MLP) does.
// Linear engines are excluded on purpose — their factorized score is a
// handful of adds, far cheaper than any batching handoff — as are the gather
// fallbacks (tree, kNN, non-linear SVM). The coalescer scores any engine
// correctly; this is the routing hint for when it should be in the path.
func (e *Engine) BatchServeable() bool { return e.hidden }

// InputFeatures returns the request layout: one value per entry, in order.
func (e *Engine) InputFeatures() []InputFeature { return e.inputs }

// InputIndex resolves an input feature name to its request position.
func (e *Engine) InputIndex(name string) (int, bool) {
	i, ok := e.inputIndex[name]
	return i, ok
}

// NumDimensions returns the number of dimension tables the model reads
// features from.
func (e *Engine) NumDimensions() int { return len(e.groups) }

// RequestFromFactRow extracts a request vector from a fact-table-shaped row
// (the natural source of serving traffic in tests, benchmarks, and replay).
// dst must have len >= len(InputFeatures()).
func (e *Engine) RequestFromFactRow(dst []relational.Value, factRow []relational.Value) []relational.Value {
	dst = dst[:len(e.inputs)]
	for i, c := range e.inputFactCol {
		dst[i] = factRow[c]
	}
	return dst
}

// Validate checks a request against the input layout: length and per-value
// domain membership (which also guarantees every FK resolves to an existing
// dimension row, since FK domains equal dimension cardinalities).
func (e *Engine) Validate(req []relational.Value) error {
	if len(req) != len(e.inputs) {
		return fmt.Errorf("serve: request has %d values, model needs %d", len(req), len(e.inputs))
	}
	for i, v := range req {
		if v < 0 || int(v) >= e.inputs[i].Cardinality {
			return fmt.Errorf("serve: input %q = %d outside domain [0,%d)", e.inputs[i].Name, v, e.inputs[i].Cardinality)
		}
	}
	return nil
}

// Prediction is one scored request.
type Prediction struct {
	Class int8
	// Score is the real-valued decision (>= 0 predicts class 1) when Scored.
	Score  float64
	Scored bool
}

// scoreFactorized is the factorized hot path: fact-feature weights in model
// order, then one partial lookup per dimension group. No per-request
// allocation, no dimension-row access.
func (e *Engine) scoreFactorized(req []relational.Value) float64 {
	acc := e.bias
	for _, fs := range e.factFeats {
		acc += e.w[e.enc.Offsets[fs.modelIdx]+int(req[fs.input])]
	}
	for gi := range e.groups {
		g := &e.groups[gi]
		acc += g.partials[req[g.fkInput]]
	}
	return acc
}

// scoreRow computes the same canonical grouped score from a fully assembled
// model row: fact-feature weights in model order, then each dimension
// group's weights folded in model order. Bit-identical to scoreFactorized
// because the precomputed partial is exactly the per-group fold.
func (e *Engine) scoreRow(row []relational.Value) float64 {
	acc := e.bias
	for _, fs := range e.factFeats {
		acc += e.w[e.enc.Offsets[fs.modelIdx]+int(row[fs.modelIdx])]
	}
	for gi := range e.groups {
		g := &e.groups[gi]
		p := 0.0
		for _, f := range g.feats {
			p += e.w[e.enc.Offsets[f.modelIdx]+int(row[f.modelIdx])]
		}
		acc += p
	}
	return acc
}

// scratch holds the per-request buffers of the gather path. The factorized
// path needs none — that asymmetry is the point.
type scratch struct {
	factRow  []relational.Value
	joined   []relational.Value
	modelRow []relational.Value
}

func (e *Engine) newScratch() *scratch {
	return &scratch{
		factRow:  make([]relational.Value, e.factW),
		joined:   make([]relational.Value, e.joinedW),
		modelRow: make([]relational.Value, len(e.mdl.Features)),
	}
}

// getScratch checks a scratch out of the engine's pool so steady-state
// gather-path requests allocate nothing; putScratch returns it.
func (e *Engine) getScratch() *scratch {
	if sc, ok := e.scratchPool.Get().(*scratch); ok {
		return sc
	}
	return e.newScratch()
}

func (e *Engine) putScratch(sc *scratch) { e.scratchPool.Put(sc) }

// assembleModelRow materializes the joined row for a request through the
// JoinView's per-dimension plans, then projects it to model feature order.
func (e *Engine) assembleModelRow(sc *scratch, req []relational.Value) []relational.Value {
	for i := range sc.factRow {
		sc.factRow[i] = 0
	}
	for i, c := range e.inputFactCol {
		sc.factRow[c] = req[i]
	}
	joined := e.jv.AssembleRow(sc.joined, sc.factRow)
	for j, c := range e.modelCols {
		sc.modelRow[j] = joined[c]
	}
	return sc.modelRow
}

func classOf(score float64) int8 {
	if score >= 0 {
		return 1
	}
	return 0
}

// PredictFactorized scores a request on the factorized path. It errors for
// models that do not export linear weights — callers select with
// Factorized() or use Predict for automatic dispatch.
func (e *Engine) PredictFactorized(req []relational.Value) (Prediction, error) {
	if !e.linear {
		return Prediction{}, fmt.Errorf("serve: model kind %q has no factorized form", e.mdl.Kind)
	}
	if err := e.Validate(req); err != nil {
		return Prediction{}, err
	}
	s := e.scoreFactorized(req)
	return Prediction{Class: classOf(s), Score: s, Scored: true}, nil
}

// PredictJoined scores a request on the gather path: the joined row is
// materialized per request (the cost a join-at-serving-time deployment
// pays), then scored — through the canonical grouped sum for linear models,
// or through the classifier's own Predict otherwise.
func (e *Engine) PredictJoined(req []relational.Value) (Prediction, error) {
	if err := e.Validate(req); err != nil {
		return Prediction{}, err
	}
	sc := e.getScratch()
	p := e.predictJoinedInto(sc, req)
	e.putScratch(sc)
	return p, nil
}

// predictJoinedInto is PredictJoined after validation, with caller scratch.
func (e *Engine) predictJoinedInto(sc *scratch, req []relational.Value) Prediction {
	row := e.assembleModelRow(sc, req)
	if e.linear {
		s := e.scoreRow(row)
		return Prediction{Class: classOf(s), Score: s, Scored: true}
	}
	p := Prediction{Class: e.cls.Predict(row)}
	if e.scorer != nil {
		p.Score = e.scorer.Decision(row)
		p.Scored = true
	}
	return p
}

// Predict scores a request on the fastest correct path: factorized for
// linear models, gather otherwise.
func (e *Engine) Predict(req []relational.Value) (Prediction, error) {
	if e.linear {
		return e.PredictFactorized(req)
	}
	return e.PredictJoined(req)
}

// predictBatchMorsel is the per-worker chunk size of PredictBatch: large
// enough to amortize goroutine handoff, small enough to spread a modest
// batch across the pool.
const predictBatchMorsel = 64

// PredictBatch scores a batch of requests, fanning morsel-sized chunks
// across the worker pool (ml.ParallelFor — the same fan-out the training
// paths use). Each output slot is written exactly once, so results are
// deterministic and identical to a sequential loop. Requests are validated
// up front; the first invalid request fails the whole batch and nothing is
// scored.
//
// Linear models keep the per-request scalar fold: the factorized score is
// already one addend per fact feature plus one per dimension, and batching
// it through an index-matrix kernel was measured strictly slower (two extra
// memory operations per addend; see the ServeBatch bench pair's history).
// The batch win lands on the MLP instead: its first layer is built from
// hoisted per-dimension partials and one dense tail pass (ClassifyHidden)
// classifies each chunk, replacing a per-request Probability call that
// allocates both hidden layers per row. That is not bit-identical to
// Predict: the partials fold each dimension group's first-layer rows before
// adding them, while Probability folds every row in sequence, so z1 can
// differ in the last bits and a logit within rounding of zero can flip
// class. The serving equivalence tests pin the classes on their data.
// Every other model takes the per-request gather path.
func (e *Engine) PredictBatch(reqs [][]relational.Value) ([]Prediction, error) {
	for i, req := range reqs {
		if err := e.Validate(req); err != nil {
			return nil, fmt.Errorf("serve: request %d: %w", i, err)
		}
	}
	out := make([]Prediction, len(reqs))
	chunks := (len(reqs) + predictBatchMorsel - 1) / predictBatchMorsel
	if e.hidden {
		// Factorized first layer: each chunk builds its block of first-layer
		// pre-activations straight from the request vectors (bias + fact
		// embedding rows + one hoisted partial vector per dimension — no
		// gather), then one dense tail pass classifies the block.
		ml.ParallelFor(chunks, func(c int) {
			lo := c * predictBatchMorsel
			hi := min(lo+predictBatchMorsel, len(reqs))
			z := make([]float64, (hi-lo)*e.hwidth)
			cls := make([]int8, hi-lo)
			e.buildHiddenInto(z, reqs, lo, hi)
			e.hf.ClassifyHidden(cls, z, hi-lo)
			for i := lo; i < hi; i++ {
				out[i] = Prediction{Class: cls[i-lo]}
			}
		})
		return out, nil
	}
	ml.ParallelFor(chunks, func(c int) {
		lo := c * predictBatchMorsel
		hi := min(lo+predictBatchMorsel, len(reqs))
		if e.linear {
			for i := lo; i < hi; i++ {
				s := e.scoreFactorized(reqs[i])
				out[i] = Prediction{Class: classOf(s), Score: s, Scored: true}
			}
			return
		}
		sc := e.getScratch()
		for i := lo; i < hi; i++ {
			out[i] = e.predictJoinedInto(sc, reqs[i])
		}
		e.putScratch(sc)
	})
	return out, nil
}

// buildHiddenInto fills dst with the first-layer pre-activations of requests
// [lo, hi): for each, the layer bias, the embedding rows of the fact-local
// features in model order, then one precomputed hpartial vector per
// dimension group — the canonical grouped fold, hoisted per dimension row
// exactly like scoreFactorized's scalar partials.
func (e *Engine) buildHiddenInto(dst []float64, reqs [][]relational.Value, lo, hi int) {
	h := e.hwidth
	fused := len(e.factFeats)+len(e.groups) == 4
	for i := lo; i < hi; i++ {
		row := dst[(i-lo)*h : (i-lo+1)*h]
		req := reqs[i]
		if fused {
			// The star-schema common case: four embedding rows to fold
			// (fact-local features plus one hpartial per dimension group,
			// e.g. two of each). Collecting them and summing in one fused
			// pass does 5 loads and 1 store per element instead of the
			// copy-then-add-each chain's 9 loads and 5 stores — this loop
			// is a top cost of a batch flush. The element-wise sum
			// associates left to right in exactly the sequential fold
			// order, so every result bit matches the general path below.
			var srcs [4][]float64
			ns := 0
			for _, fs := range e.factFeats {
				srcs[ns] = e.hw[(e.enc.Offsets[fs.modelIdx]+int(req[fs.input]))*h:][:h]
				ns++
			}
			for gi := range e.groups {
				g := &e.groups[gi]
				srcs[ns] = g.hpartial[int(req[g.fkInput])*h:][:h]
				ns++
			}
			s0, s1, s2, s3 := srcs[0], srcs[1][:h], srcs[2][:h], srcs[3][:h]
			for u := range row {
				row[u] = e.hb[u] + s0[u] + s1[u] + s2[u] + s3[u]
			}
			continue
		}
		copy(row, e.hb)
		for _, fs := range e.factFeats {
			w := e.hw[(e.enc.Offsets[fs.modelIdx]+int(req[fs.input]))*h:][:h]
			for u := range row {
				row[u] += w[u]
			}
		}
		for gi := range e.groups {
			g := &e.groups[gi]
			p := g.hpartial[int(req[g.fkInput])*h:][:h]
			for u := range row {
				row[u] += p[u]
			}
		}
	}
}

// batchScratch carries the reusable buffers of predictBatchInto so a
// steady-state coalescer flush allocates nothing on the factorized paths.
type batchScratch struct {
	z   []float64
	cls []int8
}

// predictBatchInto is the coalescer's flush kernel: it scores reqs into dst
// (len(dst) >= len(reqs)) sequentially — micro-batches are far below the
// fan-out's break-even — choosing the same path per engine as PredictBatch.
// Requests are validated up front; the first invalid one fails the whole
// batch and nothing is scored (the coalescer pre-validates at enqueue, so a
// mixed batch of strangers can never be poisoned by one bad request).
func (e *Engine) predictBatchInto(dst []Prediction, reqs [][]relational.Value, bs *batchScratch) error {
	for i, req := range reqs {
		if err := e.Validate(req); err != nil {
			return fmt.Errorf("serve: request %d: %w", i, err)
		}
	}
	n := len(reqs)
	switch {
	case e.linear:
		for i := 0; i < n; i++ {
			s := e.scoreFactorized(reqs[i])
			dst[i] = Prediction{Class: classOf(s), Score: s, Scored: true}
		}
	case e.hidden:
		if need := n * e.hwidth; cap(bs.z) < need {
			bs.z = make([]float64, need)
		}
		if cap(bs.cls) < n {
			bs.cls = make([]int8, n)
		}
		z, cls := bs.z[:n*e.hwidth], bs.cls[:n]
		e.buildHiddenInto(z, reqs, 0, n)
		e.hf.ClassifyHidden(cls, z, n)
		for i := 0; i < n; i++ {
			dst[i] = Prediction{Class: cls[i]}
		}
	default:
		sc := e.getScratch()
		for i := 0; i < n; i++ {
			dst[i] = e.predictJoinedInto(sc, reqs[i])
		}
		e.putScratch(sc)
	}
	return nil
}
