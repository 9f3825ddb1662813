package relational

// scanLen clamps a ScanColumn request to the valid row range.
func scanLen(numRows, from, dstLen int) int {
	m := numRows - from
	if m > dstLen {
		m = dstLen
	}
	if m < 0 {
		m = 0
	}
	return m
}

// colData is one column of a segment: dictionary codes stored at the
// narrowest width the column's domain fits (exactly one slice is non-nil).
// Narrowing matters twice: a u8 column holds 4x more values per cache line
// than []Value, and the full scan a learner pays per feature becomes a
// sequential walk over n bytes instead of n rows.
type colData struct {
	u8  []uint8
	u16 []uint16
	u32 []Value
}

// newColData picks the storage width for a domain of the given size.
func newColData(domainSize, capHint int) colData {
	switch {
	case domainSize <= 1<<8:
		return colData{u8: make([]uint8, 0, capHint)}
	case domainSize <= 1<<16:
		return colData{u16: make([]uint16, 0, capHint)}
	default:
		return colData{u32: make([]Value, 0, capHint)}
	}
}

// at returns the value at row i, widened back to Value.
func (c *colData) at(i int) Value {
	switch {
	case c.u8 != nil:
		return Value(c.u8[i])
	case c.u16 != nil:
		return Value(c.u16[i])
	default:
		return c.u32[i]
	}
}

// append stores one value (assumed in-domain).
func (c *colData) append(v Value) {
	switch {
	case c.u8 != nil:
		c.u8 = append(c.u8, uint8(v))
	case c.u16 != nil:
		c.u16 = append(c.u16, uint16(v))
	default:
		c.u32 = append(c.u32, v)
	}
}

// reserve grows capacity for n more values.
func (c *colData) reserve(n int) {
	switch {
	case c.u8 != nil && cap(c.u8)-len(c.u8) < n:
		grown := make([]uint8, len(c.u8), len(c.u8)+n)
		copy(grown, c.u8)
		c.u8 = grown
	case c.u16 != nil && cap(c.u16)-len(c.u16) < n:
		grown := make([]uint16, len(c.u16), len(c.u16)+n)
		copy(grown, c.u16)
		c.u16 = grown
	case c.u32 != nil && cap(c.u32)-len(c.u32) < n:
		grown := make([]Value, len(c.u32), len(c.u32)+n)
		copy(grown, c.u32)
		c.u32 = grown
	}
}

// scan widens rows [from, from+len(dst)) into dst.
func (c *colData) scan(from int, dst []Value) {
	switch {
	case c.u8 != nil:
		src := c.u8[from : from+len(dst)]
		for k, v := range src {
			dst[k] = Value(v)
		}
	case c.u16 != nil:
		src := c.u16[from : from+len(dst)]
		for k, v := range src {
			dst[k] = Value(v)
		}
	default:
		copy(dst, c.u32[from:from+len(dst)])
	}
}

// gather widens the given rows into dst.
func (c *colData) gather(dst []Value, rows []int) {
	switch {
	case c.u8 != nil:
		for k, r := range rows {
			dst[k] = Value(c.u8[r])
		}
	case c.u16 != nil:
		for k, r := range rows {
			dst[k] = Value(c.u16[r])
		}
	default:
		for k, r := range rows {
			dst[k] = c.u32[r]
		}
	}
}

// gatherTo widens c[offs[p]] into dst[to[p]] for every p — the scatter step
// of the grouped segment gather, which reads one segment's bucket of rows
// and writes each value back to its request position.
func (c *colData) gatherTo(dst []Value, offs, to []int) {
	switch {
	case c.u8 != nil:
		for p, o := range offs {
			dst[to[p]] = Value(c.u8[o])
		}
	case c.u16 != nil:
		for p, o := range offs {
			dst[to[p]] = Value(c.u16[o])
		}
	default:
		for p, o := range offs {
			dst[to[p]] = c.u32[o]
		}
	}
}
