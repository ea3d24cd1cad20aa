package xpath

// SameShape reports whether two paths have identical tag sequences,
// ignoring indices — the precondition for the paths to belong to the same
// value list (Figure 2).
func (p Path) SameShape(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i].Tag != q[i].Tag {
			return false
		}
	}
	return true
}
