// Package dataset generates synthetic stand-ins for the seven real-world
// star-schema datasets of the paper's Table 1 (Expedia, Movies, Yelp,
// Walmart, LastFM, Books, Flights).
//
// Substitution note: the originals are Kaggle/GroupLens/
// openflights/last.fm dumps we cannot ship. The paper's §5 analysis
// attributes every observed JoinAll/NoJoin/NoFK effect to four controllable
// properties — the FD FK → X_R, the tuple ratio n_S/n_R, where the true
// distribution lives, and FK skew. Each generator therefore reproduces its
// dataset's *shape*: the number of dimension tables q, home/foreign feature
// counts d_S/d_R, the tuple ratio of every dimension table (Table 1's
// column), open-domain FKs where the paper marks them N/A, and a planted
// distribution with two kinds of per-dimension signal:
//
//   - latent signal, carried by the dimension row identity itself and NOT
//     visible in X_R — only the FK can capture it (this is why NoFK loses
//     badly on Flights/LastFM/Books in the paper);
//   - feature signal, carried by X_R — recoverable through the FK only when
//     the tuple ratio is high enough (this is why Yelp's users table, ratio
//     2.5, makes NoJoin drop).
//
// The Scale parameter shrinks n_S and every n_R together, preserving all
// tuple ratios, so the full study runs at laptop scale.
package dataset

import (
	"fmt"
	"math"

	"repro/internal/relational"
	"repro/internal/rng"
)

// DimSpec describes one dimension table of a generated star schema.
type DimSpec struct {
	Name string
	// NR is the unscaled cardinality from Table 1.
	NR int
	// DR is the number of foreign feature columns.
	DR int
	// Card is the per-feature domain size (foreign features).
	Card int
	// LatentW weights the dimension's hidden per-row signal (visible only
	// through FK).
	LatentW float64
	// FeatW weights the signal carried by the first foreign feature.
	FeatW float64
	// Open marks the FK as open-domain (unusable as a feature; the paper's
	// N/A rows).
	Open bool
}

// Spec describes one generated dataset.
type Spec struct {
	Name string
	// NS is the unscaled fact cardinality from Table 1.
	NS int
	// DS is the number of home features.
	DS int
	// HomeCard is the per-feature domain size for home features.
	HomeCard int
	// HomeW weights the signal of the first home feature (0 when DS == 0).
	HomeW float64
	// Noise is the standard deviation of the Gaussian perturbation added to
	// the decision score; larger values lower all accuracies.
	Noise float64
	Dims  []DimSpec
}

// Specs returns the seven datasets in the paper's Table 1 order with the
// original cardinalities. Signal weights are calibrated so the generated
// data reproduces the paper's qualitative results (see package comment).
func Specs() []Spec {
	return []Spec{
		{
			Name: "Expedia", NS: 942142, DS: 1, HomeCard: 4, HomeW: 0.4, Noise: 0.9,
			Dims: []DimSpec{
				{Name: "Hotels", NR: 11939, DR: 8, Card: 4, LatentW: 0.8, FeatW: 0.5},
				{Name: "Searches", NR: 37021, DR: 14, Card: 4, LatentW: 0, FeatW: 0.2, Open: true},
			},
		},
		{
			Name: "Movies", NS: 1000209, DS: 0, Noise: 0.8,
			Dims: []DimSpec{
				{Name: "Users", NR: 6040, DR: 4, Card: 4, LatentW: 0.7, FeatW: 0.4},
				{Name: "Movies", NR: 3706, DR: 21, Card: 4, LatentW: 0.7, FeatW: 0.4},
			},
		},
		{
			Name: "Yelp", NS: 215879, DS: 0, Noise: 0.7,
			Dims: []DimSpec{
				{Name: "Businesses", NR: 11535, DR: 32, Card: 4, LatentW: 0.5, FeatW: 0.5},
				// Users: tuple ratio 2.5, strong X_R signal, no latent —
				// the one table that is NOT safe to avoid.
				{Name: "Users", NR: 43873, DR: 6, Card: 4, LatentW: 0, FeatW: 1.6},
			},
		},
		{
			Name: "Walmart", NS: 421570, DS: 1, HomeCard: 8, HomeW: 0.8, Noise: 0.5,
			Dims: []DimSpec{
				{Name: "Stores", NR: 2340, DR: 9, Card: 4, LatentW: 0.9, FeatW: 0.4},
				{Name: "Indicators", NR: 45, DR: 2, Card: 4, LatentW: 0.4, FeatW: 0.4},
			},
		},
		{
			Name: "LastFM", NS: 343747, DS: 0, Noise: 0.6,
			Dims: []DimSpec{
				{Name: "Users", NR: 4099, DR: 7, Card: 4, LatentW: 1.0, FeatW: 0.3},
				{Name: "Artists", NR: 50000, DR: 4, Card: 4, LatentW: 0.5, FeatW: 0.3},
			},
		},
		{
			Name: "Books", NS: 253120, DS: 0, Noise: 0.9,
			Dims: []DimSpec{
				{Name: "Readers", NR: 27876, DR: 2, Card: 4, LatentW: 0.6, FeatW: 0.3},
				{Name: "Books", NR: 49972, DR: 4, Card: 4, LatentW: 0.4, FeatW: 0.3},
			},
		},
		{
			Name: "Flights", NS: 66548, DS: 20, HomeCard: 4, HomeW: 0.5, Noise: 0.4,
			Dims: []DimSpec{
				{Name: "Airlines", NR: 540, DR: 5, Card: 4, LatentW: 1.2, FeatW: 0.4},
				{Name: "SrcAirports", NR: 3167, DR: 6, Card: 4, LatentW: 0.6, FeatW: 0.3},
				{Name: "DstAirports", NR: 3170, DR: 6, Card: 4, LatentW: 0.6, FeatW: 0.3},
			},
		},
	}
}

// SpecByName finds a dataset spec by (case-sensitive) name.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Generate materializes the star schema at the given scale (e.g. 16 divides
// every cardinality by 16) using the seed. Minimum cardinalities are clamped
// so tiny scales stay valid.
func Generate(spec Spec, scale int, seed uint64) (*relational.StarSchema, error) {
	if scale < 1 {
		return nil, fmt.Errorf("dataset: scale must be >= 1, got %d", scale)
	}
	r := rng.New(seed)
	nS := maxInt(spec.NS/scale, 64)

	type dimState struct {
		spec   DimSpec
		nR     int
		table  *relational.Table
		latent []float64 // per-row latent signal in {-1,+1}
		feat   []float64 // per-row X_R-derived signal in {-1,+1}
		keyDom *relational.Domain
	}
	states := make([]*dimState, len(spec.Dims))
	for di, d := range spec.Dims {
		nR := maxInt(d.NR/scale, 8)
		if nR > nS {
			nR = nS
		}
		st := &dimState{spec: d, nR: nR}
		st.keyDom = relational.NewDomain(d.Name+"ID", nR)
		cols := []relational.Column{{Name: d.Name + "ID", Kind: relational.KindPrimaryKey, Domain: st.keyDom}}
		featDom := relational.NewDomain(d.Name+"Feat", d.Card)
		for j := 0; j < d.DR; j++ {
			cols = append(cols, relational.Column{
				Name: fmt.Sprintf("%sF%d", d.Name, j), Kind: relational.KindFeature, Domain: featDom,
			})
		}
		st.table = relational.NewTable(d.Name, relational.MustSchema(cols...), nR)
		st.latent = make([]float64, nR)
		st.feat = make([]float64, nR)
		w := len(cols)
		block := make([]relational.Value, nR*w)
		for k := 0; k < nR; k++ {
			row := block[k*w : (k+1)*w]
			row[0] = relational.Value(k)
			for j := 0; j < d.DR; j++ {
				row[1+j] = relational.Value(r.Intn(d.Card))
			}
			st.latent[k] = pm(r.Bool())
			// Feature signal: derived from the first foreign feature so the
			// signal is visible in X_R (and, via the FD, through FK).
			if d.DR > 0 {
				st.feat[k] = pm(int(row[1]) < d.Card/2)
			}
		}
		st.table.MustAppendRows(block)
		states[di] = st
	}

	fcols := []relational.Column{{Name: "Y", Kind: relational.KindTarget, Domain: relational.NewDomain("Y", 2)}}
	homeDom := relational.NewDomain("HomeFeat", maxInt(spec.HomeCard, 2))
	for j := 0; j < spec.DS; j++ {
		fcols = append(fcols, relational.Column{Name: fmt.Sprintf("Home%d", j), Kind: relational.KindFeature, Domain: homeDom})
	}
	for di, d := range spec.Dims {
		fcols = append(fcols, relational.Column{
			Name: "FK_" + d.Name, Kind: relational.KindForeignKey,
			Domain: states[di].keyDom, Refs: d.Name, Open: d.Open,
		})
	}
	fact := relational.NewTable(spec.Name, relational.MustSchema(fcols...), nS)
	fact.Reserve(nS)
	// Rows are staged through the bulk-ingestion path: per-column domain
	// validation, bounded staging buffer.
	bulk := relational.NewBulkAppender(fact, nS)
	frow := make([]relational.Value, len(fcols))
	for i := 0; i < nS; i++ {
		score := float64(r.NormFloat64() * spec.Noise)
		for j := 0; j < spec.DS; j++ {
			v := relational.Value(r.Intn(homeDom.Size))
			frow[1+j] = v
			if j == 0 {
				score += float64(spec.HomeW * pm(int(v) < homeDom.Size/2))
			}
		}
		at := 1 + spec.DS
		for di := range spec.Dims {
			st := states[di]
			fk := r.Intn(st.nR)
			frow[at+di] = relational.Value(fk)
			score += float64(st.spec.LatentW*st.latent[fk]) + float64(st.spec.FeatW*st.feat[fk])
		}
		if score > 0 {
			frow[0] = 1
		} else {
			frow[0] = 0
		}
		bulk.MustAppend(frow)
	}
	bulk.MustFlush()
	dims := make([]*relational.Table, len(states))
	for i, st := range states {
		dims[i] = st.table
	}
	return relational.NewStarSchema(fact, dims...)
}

// Stats describes a generated dataset the way Table 1 does.
type Stats struct {
	Name string
	NS   int
	DS   int
	Q    int
	Dims []DimStats
}

// DimStats is the per-dimension block of Table 1.
type DimStats struct {
	Name string
	NR   int
	DR   int
	// TupleRatio is 50% × n_S / n_R as the paper reports (the training
	// fraction of the tuple ratio).
	TupleRatio float64
	Open       bool
}

// Describe computes the Table 1 row for a generated star schema.
func Describe(name string, ss *relational.StarSchema) Stats {
	st := Stats{
		Name: name,
		NS:   ss.Fact.NumRows(),
		DS:   len(ss.Fact.Schema().ColumnsOfKind(relational.KindFeature)),
		Q:    len(ss.DimensionNames()),
	}
	for _, fkCol := range ss.Fact.Schema().ColumnsOfKind(relational.KindForeignKey) {
		c := ss.Fact.Schema().Cols[fkCol]
		dim := ss.Dimensions[c.Refs]
		tr, _ := ss.TupleRatio(c.Refs)
		st.Dims = append(st.Dims, DimStats{
			Name:       c.Refs,
			NR:         dim.NumRows(),
			DR:         len(dim.Schema().ColumnsOfKind(relational.KindFeature)),
			TupleRatio: 0.5 * tr,
			Open:       c.Open,
		})
	}
	return st
}

// pm maps a boolean to ±1.
func pm(b bool) float64 {
	if b {
		return 1
	}
	return -1
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// roundRatio is used by tests to compare tuple ratios robustly.
func roundRatio(x float64) float64 { return math.Round(x*10) / 10 }
