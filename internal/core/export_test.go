package core

// InlineUnits counts the log units in p, the bytes of one disk write,
// whose summaries carry inline inode records. A segment write starts at a
// unit; any other write holds none.
func InlineUnits(p []byte, bs int) int {
	n := 0
	for blk := 0; blk < len(p)/bs; {
		u, err := readUnit(p, blk, bs, nil)
		if err != nil {
			break
		}
		if u.Inline > 0 {
			n++
		}
		blk = u.end
	}
	return n
}
