package relational

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV serializes a relation as CSV: a header row of column names
// followed by one row per tuple. Values are written as their labels when the
// domain is labeled, otherwise as integer codes. Lazy relations (JoinView,
// SelectView, …) stream out row by row without being materialized.
func WriteCSV(w io.Writer, t Relation) error {
	schema := t.Schema()
	cw := csv.NewWriter(w)
	if err := cw.Write(schema.Names()); err != nil {
		return fmt.Errorf("relational: csv header: %w", err)
	}
	rec := make([]string, schema.Width())
	row := make([]Value, schema.Width())
	n := t.NumRows()
	for i := 0; i < n; i++ {
		t.CopyRow(row, i)
		for j, v := range row {
			d := schema.Cols[j].Domain
			if d.Labels != nil {
				rec[j] = d.Labels[v]
			} else {
				rec[j] = strconv.Itoa(int(v))
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("relational: csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a CSV stream into a table with the given schema. The header
// must match the schema's column names exactly and in order. Unlabeled
// domains expect integer codes; labeled domains expect labels.
func ReadCSV(r io.Reader, name string, schema *Schema) (*Table, error) {
	t := NewTable(name, schema, 64)
	if err := ReadCSVInto(r, t); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadCSVInto parses a CSV stream into any bulk-ingestible destination —
// a *Table, or a *SegmentedTable that seals (and, out of core, spills)
// segments as the staged chunks land. The destination's schema drives
// parsing exactly as in ReadCSV.
func ReadCSVInto(r io.Reader, dst BulkTable) error {
	schema := dst.Schema()
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("relational: csv header: %w", err)
	}
	names := schema.Names()
	if len(header) != len(names) {
		return fmt.Errorf("relational: csv has %d columns, schema has %d", len(header), len(names))
	}
	for i := range names {
		if header[i] != names[i] {
			return fmt.Errorf("relational: csv column %d is %q, schema expects %q", i, header[i], names[i])
		}
	}
	// Build label lookup per labeled column.
	lookups := make([]map[string]Value, schema.Width())
	for j, c := range schema.Cols {
		if c.Domain.Labels != nil {
			m := make(map[string]Value, c.Domain.Size)
			for v, lab := range c.Domain.Labels {
				m[lab] = Value(v)
			}
			lookups[j] = m
		}
	}
	// Rows are staged through the bulk-ingestion path. Domain membership is
	// checked at parse time (label lookups guarantee it for labeled columns),
	// which pins the error to the offending line; the bulk append's
	// per-column revalidation is cheap.
	bulk := NewBulkAppender(dst, 0)
	row := make([]Value, schema.Width())
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("relational: csv line %d: %w", line, err)
		}
		for j, field := range rec {
			if lookups[j] != nil {
				v, ok := lookups[j][field]
				if !ok {
					return fmt.Errorf("relational: csv line %d column %q: unknown label %q", line, names[j], field)
				}
				row[j] = v
				continue
			}
			// Parse at Value's width: Atoi's int would wrap to an in-domain
			// code when narrowed before the domain check.
			iv, err := strconv.ParseInt(field, 10, 32)
			if err != nil {
				return fmt.Errorf("relational: csv line %d column %q: %w", line, names[j], err)
			}
			if !schema.Cols[j].Domain.Contains(Value(iv)) {
				return fmt.Errorf("relational: csv line %d column %q: value %d outside domain of size %d",
					line, names[j], iv, schema.Cols[j].Domain.Size)
			}
			row[j] = Value(iv)
		}
		if err := bulk.Append(row); err != nil {
			return fmt.Errorf("relational: csv: %w", err)
		}
	}
	if err := bulk.Flush(); err != nil {
		return fmt.Errorf("relational: csv: %w", err)
	}
	return nil
}
