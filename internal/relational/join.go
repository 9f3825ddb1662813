package relational

import (
	"fmt"
)

// dimPlan is one dimension's contribution to the join output: the fact FK
// column that addresses it and the dimension feature columns it exports.
type dimPlan struct {
	fkCol   int
	dim     *Table
	featIdx []int
}

// JoinView is the factorized KFK equi-join
//
//	T ← π(R_1 ⋈ … ⋈ R_q ⋈ S)
//
// as a zero-copy Relation: the fact table's columns followed by every
// dimension table's feature columns (primary keys are dropped — they are
// redundant with the FK columns), with nothing materialized. Because each
// dimension's primary key is the dense identity, At resolves a foreign
// column with a single extra array index: fact FK lookup, then direct
// dimension row access. The view holds only the schema and per-column plan
// (O(width) memory) regardless of n_S, which is what cuts JoinAll peak
// memory from O(n_S·(w_S+Σw_R)) to O(n_S·w_S).
//
// The output schema order matches the historical materialized Join: all fact
// columns (target, home features, foreign keys), then for each FK in
// fact-schema order, the referenced dimension's feature columns renamed
// "<dim>.<col>". Open-domain FKs still join (the paper joins Expedia's
// search table); openness only matters for which columns a feature view may
// use. Referential integrity (every FK within its dimension's row range) is
// checked once at construction so At and CopyRow run unchecked.
type JoinView struct {
	fact   *Table
	schema *Schema
	factW  int
	plans  []dimPlan
	// Per output column >= factW: which plan and which dimension column.
	colPlan []int32
	colDim  []int32
}

// NewJoinView builds the factorized join over a star schema, validating
// referential integrity with one pass over the fact table's FK columns.
func NewJoinView(ss *StarSchema) (*JoinView, error) {
	fact := ss.Fact
	fkCols := fact.schema.ColumnsOfKind(KindForeignKey)

	cols := append([]Column(nil), fact.schema.Cols...)
	var plans []dimPlan
	var colPlan []int32
	var colDim []int32
	for _, fkCol := range fkCols {
		ref := fact.schema.Cols[fkCol].Refs
		dim := ss.Dimensions[ref]
		if dim == nil {
			return nil, fmt.Errorf("relational: join: unknown dimension %q", ref)
		}
		var featIdx []int
		for i, c := range dim.schema.Cols {
			if c.Kind == KindFeature {
				featIdx = append(featIdx, i)
				cols = append(cols, Column{
					Name:   dim.Name + "." + c.Name,
					Kind:   KindFeature,
					Domain: c.Domain,
				})
				colPlan = append(colPlan, int32(len(plans)))
				colDim = append(colDim, int32(i))
			}
		}
		plans = append(plans, dimPlan{fkCol: fkCol, dim: dim, featIdx: featIdx})
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("relational: join: %w", err)
	}
	// Referential integrity up front so row access is unchecked.
	n := fact.NumRows()
	for _, p := range plans {
		dimN := p.dim.NumRows()
		for i := 0; i < n; i++ {
			fk := fact.At(i, p.fkCol)
			if int(fk) >= dimN || fk < 0 {
				return nil, fmt.Errorf("relational: join: fact row %d FK %q = %d has no match in %q",
					i, fact.schema.Cols[p.fkCol].Name, fk, p.dim.Name)
			}
		}
	}
	return &JoinView{
		fact:    fact,
		schema:  schema,
		factW:   fact.width,
		plans:   plans,
		colPlan: colPlan,
		colDim:  colDim,
	}, nil
}

// Schema implements Relation.
func (v *JoinView) Schema() *Schema { return v.schema }

// NumRows implements Relation.
func (v *JoinView) NumRows() int { return v.fact.NumRows() }

// At implements Relation: fact columns read through; foreign columns resolve
// the FK indirection at access time.
func (v *JoinView) At(row, col int) Value {
	if col < v.factW {
		return v.fact.At(row, col)
	}
	p := &v.plans[v.colPlan[col-v.factW]]
	fk := v.fact.At(row, p.fkCol)
	return p.dim.At(int(fk), int(v.colDim[col-v.factW]))
}

// CopyRow implements Relation: one contiguous fact-row copy, then one FK
// lookup per dimension (not per cell).
func (v *JoinView) CopyRow(dst []Value, row int) []Value {
	w := v.schema.Width()
	dst = dst[:w]
	copy(dst, v.fact.rows[row*v.factW:(row+1)*v.factW])
	at := v.factW
	for i := range v.plans {
		p := &v.plans[i]
		fk := v.fact.At(row, p.fkCol)
		dimRow := p.dim.Row(int(fk))
		for _, fi := range p.featIdx {
			dst[at] = dimRow[fi]
			at++
		}
	}
	return dst
}

// ScanColumn implements Relation. A fact column is a strided scan of the
// fact table; a foreign column is a gather — read the FK column, then index
// the dimension's storage — which is exactly the batched form of the
// per-cell indirection At performs. Referential integrity was validated at
// construction, so the inner loops run unchecked.
func (v *JoinView) ScanColumn(col int, from int, dst []Value) int {
	m := scanLen(v.fact.NumRows(), from, len(dst))
	if col < v.factW {
		return v.fact.ScanColumn(col, from, dst[:m])
	}
	p := &v.plans[v.colPlan[col-v.factW]]
	dimCol := int(v.colDim[col-v.factW])
	dim, dimW := p.dim, p.dim.width
	fw := v.factW
	at := from*fw + p.fkCol
	for k := 0; k < m; k++ {
		fk := v.fact.rows[at]
		dst[k] = dim.rows[int(fk)*dimW+dimCol]
		at += fw
	}
	return m
}

// GatherColumns implements Relation with the same fact/foreign split as
// ScanColumn, column by column over arbitrary row indices.
func (v *JoinView) GatherColumns(dst []Value, stride int, cols []int, rows []int) {
	fw := v.factW
	for i, c := range cols {
		d := dst[i*stride : i*stride+len(rows)]
		if c < fw {
			for k, r := range rows {
				d[k] = v.fact.rows[r*fw+c]
			}
			continue
		}
		p := &v.plans[v.colPlan[c-fw]]
		dimCol := int(v.colDim[c-fw])
		dim, dimW := p.dim, p.dim.width
		for k, r := range rows {
			fk := v.fact.rows[r*fw+p.fkCol]
			d[k] = dim.rows[int(fk)*dimW+dimCol]
		}
	}
}

// Fact returns the underlying fact table.
func (v *JoinView) Fact() *Table { return v.fact }

// AssembleRow fills dst (len >= the join schema width) with the joined row
// for an arbitrary fact-shaped row — one that need not exist in the fact
// table. This is the serving-time gather: an inference request arrives as
// fact attributes plus foreign-key ids, and the dimension features are
// resolved through the same per-dimension plans CopyRow uses. Foreign-key
// values must be in range for their dimension (callers validate request
// inputs up front, as NewJoinView validated the fact table); the target slot
// is copied through like any other fact column.
func (v *JoinView) AssembleRow(dst []Value, factRow []Value) []Value {
	dst = dst[:v.schema.Width()]
	copy(dst, factRow[:v.factW])
	at := v.factW
	for i := range v.plans {
		p := &v.plans[i]
		fk := factRow[p.fkCol]
		dimRow := p.dim.Row(int(fk))
		for _, fi := range p.featIdx {
			dst[at] = dimRow[fi]
			at++
		}
	}
	return dst
}
