package relational

import (
	"fmt"
)

// Table is a column-named, row-major matrix of categorical codes. Rows are
// stored contiguously ([]Value of length Width per row) for cache-friendly
// scans; all learners in this repository consume tables through views that
// avoid copying. Table implements Relation and is its only physical
// (materialized) implementation.
type Table struct {
	Name   string
	schema *Schema
	width  int     // cached schema.Width(); hot accessors avoid the pointer chase
	rows   []Value // len == NumRows * width
}

// NewTable creates an empty table with capacity hint rows.
func NewTable(name string, schema *Schema, capHint int) *Table {
	return &Table{
		Name:   name,
		schema: schema,
		width:  schema.Width(),
		rows:   make([]Value, 0, capHint*schema.Width()),
	}
}

// Schema implements Relation.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows implements Relation.
func (t *Table) NumRows() int {
	if t.width == 0 {
		return 0
	}
	return len(t.rows) / t.width
}

// AppendRow appends one row after validating width and domain membership.
func (t *Table) AppendRow(row []Value) error {
	if len(row) != t.width {
		return fmt.Errorf("relational: table %q expects %d columns, row has %d", t.Name, t.width, len(row))
	}
	for i, v := range row {
		if !t.schema.Cols[i].Domain.Contains(v) {
			return fmt.Errorf("relational: table %q column %q: value %d outside domain of size %d",
				t.Name, t.schema.Cols[i].Name, v, t.schema.Cols[i].Domain.Size)
		}
	}
	t.rows = append(t.rows, row...)
	return nil
}

// MustAppendRow is AppendRow for generator code where rows are correct by
// construction.
func (t *Table) MustAppendRow(row []Value) {
	if err := t.AppendRow(row); err != nil {
		panic(err)
	}
}

// Reserve grows the table's capacity to hold n more rows without
// reallocation.
func (t *Table) Reserve(n int) {
	need := len(t.rows) + n*t.width
	if cap(t.rows) >= need {
		return
	}
	grown := make([]Value, len(t.rows), need)
	copy(grown, t.rows)
	t.rows = grown
}

// AppendRows bulk-appends a row-major block (len(block) must be a multiple
// of the table width). It is the ingestion fast path: domain validation is
// hoisted out of the per-value loop into one strided pass per column, so
// the inner check is a bound compare instead of a schema/domain pointer
// chase per cell. On error nothing is appended.
func (t *Table) AppendRows(block []Value) error {
	if _, err := validateBlock(t.schema, t.Name, block); err != nil {
		return err
	}
	t.rows = append(t.rows, block...)
	return nil
}

// validateBlock is the shared bulk-ingestion check of both storage engines:
// the block must be a whole number of rows, and each column is verified
// against its domain bound in one strided pass. Returns the row count.
func validateBlock(schema *Schema, name string, block []Value) (int, error) {
	w := schema.Width()
	if w == 0 || len(block)%w != 0 {
		return 0, fmt.Errorf("relational: table %q: block of %d values is not a multiple of width %d", name, len(block), w)
	}
	nRows := len(block) / w
	for j := 0; j < w; j++ {
		size := Value(schema.Cols[j].Domain.Size)
		for k, at := 0, j; k < nRows; k, at = k+1, at+w {
			if v := block[at]; v < 0 || v >= size {
				return 0, fmt.Errorf("relational: table %q column %q row %d: value %d outside domain of size %d",
					name, schema.Cols[j].Name, k, v, size)
			}
		}
	}
	return nRows, nil
}

// MustAppendRows is AppendRows for generator code where rows are correct by
// construction.
func (t *Table) MustAppendRows(block []Value) {
	if err := t.AppendRows(block); err != nil {
		panic(err)
	}
}

// Row returns a read-only view of row i. The returned slice aliases the
// table's storage; callers must not modify it.
func (t *Table) Row(i int) []Value {
	return t.rows[i*t.width : (i+1)*t.width : (i+1)*t.width]
}

// At returns the value at (row, col); both indices must be in range.
func (t *Table) At(row, col int) Value {
	return t.rows[row*t.width+col]
}

// CopyRow implements Relation.
func (t *Table) CopyRow(dst []Value, row int) []Value {
	dst = dst[:t.width]
	copy(dst, t.rows[row*t.width:(row+1)*t.width])
	return dst
}

// Set overwrites the value at (row, col) after a domain check.
func (t *Table) Set(row, col int, v Value) error {
	if !t.schema.Cols[col].Domain.Contains(v) {
		return fmt.Errorf("relational: table %q column %q: value %d outside domain",
			t.Name, t.schema.Cols[col].Name, v)
	}
	t.rows[row*t.width+col] = v
	return nil
}

// ScanColumn implements Relation: a strided walk over the row-major
// storage.
func (t *Table) ScanColumn(col int, from int, dst []Value) int {
	m := scanLen(t.NumRows(), from, len(dst))
	w := t.width
	at := from*w + col
	for k := 0; k < m; k++ {
		dst[k] = t.rows[at]
		at += w
	}
	return m
}

// GatherColumns implements Relation: one strided gather per column.
func (t *Table) GatherColumns(dst []Value, stride int, cols []int, rows []int) {
	w := t.width
	for i, c := range cols {
		d := dst[i*stride : i*stride+len(rows)]
		for k, r := range rows {
			d[k] = t.rows[r*w+c]
		}
	}
}

// StarSchema bundles one fact table S with its dimension tables R_1..R_q in
// the paper's notation. Dimension tables are addressed by name; fact-table
// foreign-key columns carry the referenced dimension's name in Column.Refs.
type StarSchema struct {
	Fact       *Table
	Dimensions map[string]*Table
	// TargetCol is the index of the Y column in Fact.
	TargetCol int
}

// NewStarSchema validates referential structure: the fact table must have
// exactly one target column, every FK column must reference a known
// dimension whose primary key domain matches the FK domain, and every
// dimension must have exactly one primary-key column whose values are the
// dense identity (row i has RID i), which is how KFK joins stay O(1).
func NewStarSchema(fact *Table, dims ...*Table) (*StarSchema, error) {
	ss := &StarSchema{Fact: fact, Dimensions: make(map[string]*Table, len(dims)), TargetCol: -1}
	for _, d := range dims {
		if _, dup := ss.Dimensions[d.Name]; dup {
			return nil, fmt.Errorf("relational: duplicate dimension table %q", d.Name)
		}
		pks := d.schema.ColumnsOfKind(KindPrimaryKey)
		if len(pks) != 1 {
			return nil, fmt.Errorf("relational: dimension %q must have exactly 1 primary key, has %d", d.Name, len(pks))
		}
		pk := pks[0]
		if d.schema.Cols[pk].Domain.Size != d.NumRows() {
			return nil, fmt.Errorf("relational: dimension %q primary key domain size %d != row count %d",
				d.Name, d.schema.Cols[pk].Domain.Size, d.NumRows())
		}
		for i := 0; i < d.NumRows(); i++ {
			if d.At(i, pk) != Value(i) {
				return nil, fmt.Errorf("relational: dimension %q row %d has RID %d; dense identity required",
					d.Name, i, d.At(i, pk))
			}
		}
		ss.Dimensions[d.Name] = d
	}
	targets := fact.schema.ColumnsOfKind(KindTarget)
	if len(targets) != 1 {
		return nil, fmt.Errorf("relational: fact table %q must have exactly 1 target column, has %d", fact.Name, len(targets))
	}
	ss.TargetCol = targets[0]
	for _, fkCol := range fact.schema.ColumnsOfKind(KindForeignKey) {
		c := fact.schema.Cols[fkCol]
		dim, ok := ss.Dimensions[c.Refs]
		if !ok {
			return nil, fmt.Errorf("relational: fact FK %q references unknown dimension %q", c.Name, c.Refs)
		}
		pk := dim.schema.ColumnsOfKind(KindPrimaryKey)[0]
		if dim.schema.Cols[pk].Domain.Size != c.Domain.Size {
			return nil, fmt.Errorf("relational: FK %q domain size %d != dimension %q key domain size %d",
				c.Name, c.Domain.Size, c.Refs, dim.schema.Cols[pk].Domain.Size)
		}
	}
	return ss, nil
}

// DimensionNames returns dimension table names in fact-schema FK order.
func (ss *StarSchema) DimensionNames() []string {
	var out []string
	for _, fkCol := range ss.Fact.schema.ColumnsOfKind(KindForeignKey) {
		out = append(out, ss.Fact.schema.Cols[fkCol].Refs)
	}
	return out
}

// TupleRatio returns n_S / n_R for the named dimension table — the paper's
// central decision statistic. Crucially this needs only the dimension
// table's *cardinality* (its key domain size), not its contents, which is
// why the decision can be made before procuring the table.
func (ss *StarSchema) TupleRatio(dim string) (float64, error) {
	for _, fkCol := range ss.Fact.schema.ColumnsOfKind(KindForeignKey) {
		c := ss.Fact.schema.Cols[fkCol]
		if c.Refs == dim {
			return float64(ss.Fact.NumRows()) / float64(c.Domain.Size), nil
		}
	}
	return 0, fmt.Errorf("relational: no foreign key references dimension %q", dim)
}
